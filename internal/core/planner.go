package core

import (
	"fmt"
	"strings"

	"nra/internal/algebra"
	"nra/internal/colstore"
	"nra/internal/exec"
	"nra/internal/expr"
	"nra/internal/opt"
	"nra/internal/relation"
	"nra/internal/sql"
	"nra/internal/vec"
)

// planner holds per-query planning state.
type planner struct {
	q   *sql.Query
	opt Options
	ec  *exec.ExecContext // per-query governance; Background when unused

	colBlock map[string]int   // qualified column name → owning block ID
	needed   map[int][]string // block ID → columns that must flow upward
	keys     map[int][]string // block ID → its tables' PK columns

	// setSem marks a query whose output is a set rather than a bag: root
	// DISTINCT, no aggregates, no LIMIT/OFFSET, and no scalar-aggregate
	// link anywhere (aggregates are multiplicity-sensitive). Under set
	// semantics the §4.2.5 inner-block rewrite may skip its
	// multiset-restoring duplicate elimination: quantified links are
	// multiplicity-insensitive, extra copies collapse at the next nest or
	// at the root DISTINCT.
	setSem bool

	// Cost-based planning state (see costbased.go). est is nil unless
	// Options.UseStats is set and every table has fresh statistics.
	est       *opt.Estimator
	card      map[int]float64           // block ID → est reduced cardinality
	width     map[int]float64           // block ID → est payload bytes per tuple
	edgeEst   map[*sql.LinkEdge]edgeEst // per-edge join/link estimates
	peakRows  float64                   // largest estimated operator input
	statsNote string                    // EXPLAIN line describing stats availability
	planNotes []string                  // EXPLAIN chosen-because annotations
	spillOps  []string                  // operators planned onto their spill path
	vecNotes  []string                  // batch→row fallbacks observed at run time

	// vecCache maps an intermediate relation to its column-vector form,
	// filled by each batch operator and consumed by the next, so a fully
	// batchable reduce→join→nest chain converts each column exactly once.
	// Keyed by relation identity: relations are immutable during query
	// execution.
	vecCache map[*relation.Relation]*vec.Batch
}

func newPlanner(q *sql.Query, opt Options) (*planner, error) {
	p := &planner{
		q:        q,
		opt:      opt,
		ec:       exec.Background(),
		colBlock: make(map[string]int),
		needed:   make(map[int][]string),
		keys:     make(map[int][]string),
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	p.setSem = p.computeSetSemantics()
	p.computeColumnOwners()
	if err := p.computeNeeded(); err != nil {
		return nil, err
	}
	p.buildEstimator()
	p.estimateQuery()
	return p, nil
}

// check verifies the query is decomposable per §4.1: every block's WHERE
// splits into θ_i / C_ij / L_i, with linking attributes that are columns
// or constants and single-column subquery select lists.
func (p *planner) check() error {
	for _, b := range p.q.Blocks {
		if len(b.Other) > 0 {
			return unsupportedf("block %d has a subquery under OR/NOT or another non-conjunctive shape", b.ID)
		}
		if b.ComplexItems {
			return unsupportedf("block %d has subqueries in its select list", b.ID)
		}
		for _, l := range b.Links {
			if l.Pred.Left != nil {
				switch l.Pred.Left.(type) {
				case *sql.ColRef, *sql.Lit:
				default:
					return unsupportedf("linking attribute %q of block %d is not a column or constant", l.Pred.Left, b.ID)
				}
			}
			switch l.Kind {
			case sql.Exists, sql.NotExists:
			case sql.CmpScalar:
				if _, ok := l.Child.Agg(); !ok {
					return unsupportedf("scalar subquery block %d lacks a single aggregate", l.Child.ID)
				}
			default:
				if _, err := p.q.LinkedAttr(l.Child); err != nil {
					return unsupportedf("%v", err)
				}
			}
		}
	}
	return nil
}

// computeSetSemantics reports whether the query's result is a set — the
// bag/set distinction of Ricciotti-style mixed semantics. True only when
// the root SELECT is DISTINCT with plain (non-aggregate) items, there is
// no LIMIT/OFFSET, and no block carries a scalar-aggregate link (COUNT/
// SUM/AVG observe member multiplicities, so intermediate duplicates must
// not be introduced).
func (p *planner) computeSetSemantics() bool {
	root := p.q.Root
	sel := root.Sel
	if !sel.Distinct || len(root.AggItems) > 0 || sel.Limit >= 0 || sel.Offset > 0 {
		return false
	}
	for _, b := range p.q.Blocks {
		for _, l := range b.Links {
			if l.Kind == sql.CmpScalar {
				return false
			}
		}
	}
	return true
}

func (p *planner) computeColumnOwners() {
	for _, b := range p.q.Blocks {
		for _, bt := range b.Tables {
			for _, c := range bt.Schema.Cols {
				p.colBlock[c.Name] = b.ID
			}
			p.keys[b.ID] = append(p.keys[b.ID], bt.Prefix+"."+unqualify(bt.Table.PK))
		}
	}
}

// computeNeeded determines, per block, the columns that must survive the
// block's reduction: select/order-by columns (root), every correlated- or
// linking-predicate column, the linked attributes, and all primary keys
// (group identity and presence markers).
func (p *planner) computeNeeded() error {
	add := func(blockID int, col string) {
		for _, c := range p.needed[blockID] {
			if c == col {
				return
			}
		}
		p.needed[blockID] = append(p.needed[blockID], col)
	}
	addExprCols := func(e sql.Expr) error {
		var firstErr error
		if e == nil {
			return nil
		}
		sql.Walk(e, func(x sql.Expr) {
			if firstErr != nil {
				return
			}
			if c, ok := x.(*sql.ColRef); ok {
				r, ok := p.q.Resolve(c)
				if !ok {
					firstErr = unsupportedf("unresolved column %s", c)
					return
				}
				add(r.Block.ID, r.Name)
			}
		})
		return firstErr
	}

	// Primary keys first: they are the group/presence machinery.
	for _, b := range p.q.Blocks {
		for _, k := range p.keys[b.ID] {
			add(b.ID, k)
		}
	}
	root := p.q.Root
	if root.Sel.Star {
		for _, c := range root.Schema.Cols {
			add(root.ID, c.Name)
		}
	} else {
		for _, it := range root.Sel.Items {
			if err := addExprCols(it.Expr); err != nil {
				return err
			}
		}
	}
	for _, o := range root.Sel.OrderBy {
		if err := addExprCols(o.Expr); err != nil {
			return err
		}
	}
	for _, b := range p.q.Blocks {
		for _, cp := range b.Corr {
			if err := addExprCols(cp.E); err != nil {
				return err
			}
		}
		for _, l := range b.Links {
			if err := addExprCols(l.Pred.Left); err != nil {
				return err
			}
			switch l.Kind {
			case sql.Exists, sql.NotExists:
			case sql.CmpScalar:
				if agg, ok := l.Child.Agg(); ok && agg.Col != "" {
					add(l.Child.ID, agg.Col)
				}
			default:
				la, err := p.q.LinkedAttr(l.Child)
				if err != nil {
					return unsupportedf("%v", err)
				}
				add(l.Child.ID, la)
			}
		}
	}
	return nil
}

// trace emits one line of the execution walkthrough when Options.Trace
// is set.
func (p *planner) trace(format string, args ...any) {
	if p.opt.Trace != nil {
		fmt.Fprintf(p.opt.Trace, format+"\n", args...)
	}
}

// seq charges sequential tuple accesses to the optional I/O meter
// (reads of inputs, writes of materialised outputs).
func (p *planner) seq(ns ...int) {
	for _, n := range ns {
		p.opt.Meter.Seq(n)
	}
}

// reduce produces T_i = σ_{θ_i}(R_i): the block's tables joined on the
// local predicates with selections pushed down, projected to the block's
// needed columns (§4.1 step 1). Single-table blocks — the common case —
// run as one scan→filter→project pass; multi-table blocks join
// with selections pushed to each side.
func (p *planner) reduce(b *sql.Block) (*relation.Relation, error) {
	if len(b.Tables) == 1 {
		return p.reduceSingle(b)
	}
	// Partition local conjuncts by the tables they touch.
	type pending struct {
		e    expr.Expr
		cols []string
	}
	var preds []pending
	for _, l := range b.Local {
		le, err := p.q.Lower(l)
		if err != nil {
			return nil, err
		}
		le = p.filterExpr(le)
		preds = append(preds, pending{e: le, cols: le.Columns(nil)})
	}

	covered := func(cols []string, have *relation.Schema) bool {
		for _, c := range cols {
			if have.ColIndex(c) < 0 {
				return false
			}
		}
		return true
	}

	sp := p.begin("reduce T%d (%s)", b.ID+1, blockTables(b))
	var rel *relation.Relation
	for ti, bt := range b.Tables {
		tblRel := &relation.Relation{Schema: bt.Schema, Tuples: bt.Table.Rel.Tuples}
		p.seq(tblRel.Len()) // base-table scan
		// Push down single-table selections before joining.
		var mine []expr.Expr
		var rest []pending
		for _, pd := range preds {
			if covered(pd.cols, bt.Schema) {
				mine = append(mine, pd.e)
			} else {
				rest = append(rest, pd)
			}
		}
		preds = rest
		if sel := expr.And(mine...); sel != nil {
			filtered, err := algebra.Select(tblRel, sel)
			if err != nil {
				return nil, err
			}
			tblRel = filtered
		}
		if ti == 0 {
			rel = tblRel
			continue
		}
		// Join on whatever local predicates are now fully covered.
		joined, err := joinSchemaPreview(rel, tblRel)
		if err != nil {
			return nil, err
		}
		var on []expr.Expr
		rest = nil
		for _, pd := range preds {
			if covered(pd.cols, joined) {
				on = append(on, pd.e)
			} else {
				rest = append(rest, pd)
			}
		}
		preds = rest
		// Cost-based build-side choice: the hash join builds on its right
		// input, so put the smaller relation there (legal for the inner
		// joins of block reduction — columns are addressed by name).
		left, right := rel, tblRel
		if p.costBased() && left.Len() < right.Len() {
			left, right = right, left
			p.trace("build side swapped: the %d-row accumulated join builds; %s (%d rows) probes", rel.Len(), bt.Ref.Table, tblRel.Len())
		}
		rel, err = p.join(left, right, expr.And(on...))
		if err != nil {
			return nil, err
		}
	}
	if len(preds) > 0 {
		// Leftover conjuncts (should not happen: locals only reference the
		// block's own tables) — apply as a final filter.
		var all []expr.Expr
		for _, pd := range preds {
			all = append(all, pd.e)
		}
		filtered, err := algebra.Select(rel, expr.And(all...))
		if err != nil {
			return nil, err
		}
		rel = filtered
	}
	out, err := algebra.Project(rel, p.needed[b.ID]...)
	if err != nil {
		return nil, err
	}
	p.seq(out.Len()) // write of the reduced block
	p.trace("T%d := σ_θ(%s)  → %d tuples", b.ID+1, blockTables(b), out.Len())
	p.done(sp, p.estCard(b), out.Len())
	return out, nil
}

// reduceSingle is the single-table reduction: one pass (exec.Reduce or,
// when vectorized, exec.VecReduce), no intermediate materialisation
// between selection and projection.
func (p *planner) reduceSingle(b *sql.Block) (*relation.Relation, error) {
	bt := b.Tables[0]
	base := &relation.Relation{Schema: bt.Schema, Tuples: bt.Table.Rel.Tuples}
	local, err := p.q.LowerAll(b.Local)
	if err != nil {
		return nil, err
	}
	local = p.filterExpr(local)
	sp := p.begin("reduce T%d (%s)", b.ID+1, bt.Ref.Table)
	var out *relation.Relation
	if p.vecGate() == "" {
		if !p.vecCostOK(float64(base.Len())) {
			p.vecNote(fmt.Sprintf("reduce T%d", b.ID+1), "below vectorization threshold")
		} else {
			colsrc, prune := p.segPrune(bt, base, local)
			vo, vb, reason, err := exec.VecReduce(p.ec, base, local, p.needed[b.ID], colsrc, prune)
			if err != nil {
				return nil, err
			}
			if reason != "" {
				p.vecNote(fmt.Sprintf("reduce T%d", b.ID+1), reason)
			} else {
				out = vo
				p.vecPut(out, vb)
			}
		}
	}
	if out == nil {
		var err error
		out, err = exec.Reduce(p.ec, base, local, p.needed[b.ID])
		if err != nil {
			return nil, err
		}
	}
	p.seq(base.Len(), out.Len()) // one scan in, reduced block out
	p.trace("T%d := σ_θ(%s)  → %d tuples", b.ID+1, bt.Ref.Table, out.Len())
	p.done(sp, p.estCard(b), out.Len())
	return out, nil
}

// segPrune prepares a single-table reduction's zone-map pruning: when
// the table version is segment-backed (columnar durable format) and
// the segment still describes exactly base's rows, the local predicate
// is tested against every row group's zone maps. Groups proved free of
// matches are skipped by the scan AND left undecoded by the column
// source. Returns the plain memoized column store and a nil prune
// whenever pruning does not apply — the scan then behaves exactly as
// before segments existed.
func (p *planner) segPrune(bt *sql.BlockTable, base *relation.Relation, pred expr.Expr) (func(int) *vec.Vector, *exec.SegPrune) {
	t := bt.Table
	segs := t.Segments()
	if segs == nil || pred == nil || p.opt.NoZoneMapPruning || segs.Rows() != base.Len() {
		return t.VecColumn, nil
	}
	skip, scanned, total := colstore.PruneGroups(pred, base.Schema, segs.Footer())
	if skip == nil {
		return t.VecColumn, nil
	}
	p.trace("zone maps prune %s: %d/%d row groups scanned", bt.Ref.Table, scanned, total)
	prune := &exec.SegPrune{GroupRows: segs.Footer().GroupRows, Skip: skip}
	return func(c int) *vec.Vector { return t.VecColumnPruned(c, skip) }, prune
}

func blockTables(b *sql.Block) string {
	names := make([]string, 0, len(b.Tables))
	for _, bt := range b.Tables {
		names = append(names, bt.Ref.Table)
	}
	return strings.Join(names, " × ")
}

// joinSchemaPreview returns what the combined schema of a join would be
// (for predicate coverage checks) without executing it.
func joinSchemaPreview(l, r *relation.Relation) (*relation.Schema, error) {
	s := &relation.Schema{Name: "preview"}
	s.Cols = append(append([]relation.Column{}, l.Schema.Cols...), r.Schema.Cols...)
	return s, nil
}

// corrCond conjoins and lowers a block's correlated predicates.
func (p *planner) corrCond(b *sql.Block) (expr.Expr, error) {
	var parts []expr.Expr
	for _, cp := range b.Corr {
		e, err := p.q.Lower(cp.E)
		if err != nil {
			return nil, err
		}
		parts = append(parts, e)
	}
	return p.filterExpr(expr.And(parts...)), nil
}

// filterExpr adapts a lowered filter/join predicate to the session logic:
// under 2VL it applies the filter-context rewrite (which leaves bare
// comparisons and AND-trees structurally unchanged, so equi-key and
// push-down pattern matching still fire); under 3VL it is the identity.
func (p *planner) filterExpr(e expr.Expr) expr.Expr {
	if !p.opt.TwoValuedLogic || e == nil {
		return e
	}
	return expr.TwoValued(e)
}

// linkPred converts a link edge into an algebra.LinkPred over the nested
// attribute subName, with the child's presence column marking padding.
//
// Under 2VL the analyzer's 3VL normalisations are unsound and the
// encoding changes: NOT IN becomes a negated =SOME (x NOT IN {NULL} is
// True under 2VL, whereas <>ALL over a collapsed <> would say False), and
// a NOT-folded quantifier or scalar comparison (edge.SynNeg) is undone to
// its syntactic form and negated classically after the fold.
func (p *planner) linkPred(edge *sql.LinkEdge, subName string, child *sql.Block) (algebra.LinkPred, error) {
	pred := algebra.LinkPred{Sub: subName, Presence: child.Presence}
	twoVL := p.opt.TwoValuedLogic
	switch edge.Kind {
	case sql.Exists:
		pred.Empty = algebra.NotEmpty
		return pred, nil
	case sql.NotExists:
		pred.Empty = algebra.IsEmpty
		return pred, nil
	case sql.CmpScalar:
		agg, ok := child.Agg()
		if !ok {
			return pred, unsupportedf("scalar subquery block %d lacks a single aggregate", child.ID)
		}
		pred.Agg = agg.Func
		pred.Linked = agg.Col
		pred.Op = edge.Cmp
		if twoVL {
			pred.TwoValued = true
			if edge.SynNeg {
				pred.Op, pred.Negate = edge.Cmp.Negate(), true
			}
		}
		return p.fillLeft(edge, pred)
	}
	la, err := p.q.LinkedAttr(child)
	if err != nil {
		return pred, unsupportedf("%v", err)
	}
	pred.Linked = la
	switch edge.Kind {
	case sql.In:
		pred.Op, pred.Quant = expr.Eq, algebra.Some
	case sql.NotIn:
		if twoVL {
			pred.Op, pred.Quant, pred.Negate = expr.Eq, algebra.Some, true
		} else {
			pred.Op, pred.Quant = expr.Ne, algebra.All
		}
	case sql.CmpSome:
		pred.Op, pred.Quant = edge.Cmp, algebra.Some
		if twoVL && edge.SynNeg {
			pred.Op, pred.Quant, pred.Negate = edge.Cmp.Negate(), algebra.All, true
		}
	case sql.CmpAll:
		pred.Op, pred.Quant = edge.Cmp, algebra.All
		if twoVL && edge.SynNeg {
			pred.Op, pred.Quant, pred.Negate = edge.Cmp.Negate(), algebra.Some, true
		}
	}
	pred.TwoValued = twoVL
	return p.fillLeft(edge, pred)
}

// fillLeft resolves the linking attribute (a column of an enclosing block
// or a constant) into the predicate.
func (p *planner) fillLeft(edge *sql.LinkEdge, pred algebra.LinkPred) (algebra.LinkPred, error) {
	switch left := edge.Pred.Left.(type) {
	case *sql.ColRef:
		r, ok := p.q.Resolve(left)
		if !ok {
			return pred, unsupportedf("unresolved linking attribute %s", left)
		}
		pred.Attr = r.Name
	case *sql.Lit:
		v := left.V
		pred.Const = &v
	default:
		return pred, unsupportedf("linking attribute %q", edge.Pred.Left)
	}
	return pred, nil
}

// strictOK reports whether the strict linking selection σ may be used
// when computing a link whose parent block is b: true when b is the root
// or when every pending linking operator on the path to the root is
// positive (§4.1: "σ̄ is used for computing negative or mixed linking
// predicates; σ ... for the last ... or all unfinished being positive").
// The top parameter is the block acting as root of the current
// (sub)computation — the global root, or the subquery block itself when a
// non-correlated subtree is evaluated standalone.
func (p *planner) strictOK(b, top *sql.Block) bool {
	if b == top {
		return true
	}
	if p.opt.AlwaysPad {
		return false
	}
	for blk := b; blk != top && blk.Parent != nil; blk = blk.Parent {
		link := incomingLink(blk)
		if link == nil || !link.Kind.Positive() {
			return false
		}
	}
	return true
}

func incomingLink(b *sql.Block) *sql.LinkEdge {
	if b.Parent == nil {
		return nil
	}
	for _, l := range b.Parent.Links {
		if l.Child == b {
			return l
		}
	}
	return nil
}

// blockCols returns the columns of rel owned by block id, in schema order.
func (p *planner) blockCols(rel *relation.Relation, id int) []string {
	var out []string
	for _, c := range rel.Schema.Cols {
		if p.colBlock[c.Name] == id {
			out = append(out, c.Name)
		}
	}
	return out
}

// otherCols returns the columns of rel NOT owned by block id.
func (p *planner) otherCols(rel *relation.Relation, id int) []string {
	var out []string
	for _, c := range rel.Schema.Cols {
		if p.colBlock[c.Name] != id {
			out = append(out, c.Name)
		}
	}
	return out
}

// pathKeyCols returns the PK columns of every block from root-of-subtree
// top down to b that are present in rel, in block order — the group keys
// for the fused operators.
func (p *planner) pathKeyCols(rel *relation.Relation, b, top *sql.Block) []string {
	var chain []*sql.Block
	for blk := b; ; blk = blk.Parent {
		chain = append([]*sql.Block{blk}, chain...)
		if blk == top || blk.Parent == nil {
			break
		}
	}
	var out []string
	for _, blk := range chain {
		for _, k := range p.keys[blk.ID] {
			if rel.Schema.ColIndex(k) >= 0 {
				out = append(out, k)
			}
		}
	}
	return out
}

// subtreeUncorrelated reports whether block c's whole subtree references
// no block outside the subtree — in which case it can be evaluated once
// and shared by all outer tuples (§4: virtual Cartesian product).
func (p *planner) subtreeUncorrelated(c *sql.Block) bool {
	inSub := map[int]bool{}
	var mark func(b *sql.Block)
	mark = func(b *sql.Block) {
		inSub[b.ID] = true
		for _, ch := range b.Children {
			mark(ch)
		}
	}
	mark(c)
	var bad bool
	var visit func(b *sql.Block)
	visit = func(b *sql.Block) {
		for _, cp := range b.Corr {
			for id := range cp.Outers {
				if !inSub[id] {
					bad = true
				}
			}
		}
		for _, ch := range b.Children {
			visit(ch)
		}
	}
	visit(c)
	return !bad
}

// finish applies the root select list, DISTINCT and ORDER BY.
func (p *planner) finish(rel *relation.Relation) (*relation.Relation, error) {
	sp := p.begin("finish (select list / DISTINCT / ORDER BY)")
	out, err := exec.FinishQuery(rel, p.q)
	if err == nil {
		p.done(sp, -1, out.Len())
	} else {
		sp.End()
	}
	return out, err
}

func unqualify(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}
