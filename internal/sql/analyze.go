package sql

import (
	"fmt"

	"nra/internal/algebra"
	"nra/internal/catalog"
	"nra/internal/expr"
	"nra/internal/relation"
)

// Query is an analyzed (name-resolved, block-decomposed) statement.
type Query struct {
	Root   *Block
	Blocks []*Block // pre-order, depth-first, left-to-right; Blocks[0] = Root

	res map[*ColRef]ColRes
}

// ColRes is the resolution of one column reference.
type ColRes struct {
	Block *Block
	Name  string // globally unique qualified name, e.g. "S.E" or "l2.l_qty"
}

// BlockTable is one FROM-clause table of a block with its unique range
// prefix and prefixed schema.
type BlockTable struct {
	Ref    TableRef
	Table  *catalog.Table
	Prefix string
	Schema *relation.Schema
}

// CorrPred is a correlated predicate C_ij: a conjunct of block i's WHERE
// clause that references columns of one or more enclosing blocks j.
type CorrPred struct {
	E      Expr
	Outers map[int]bool // IDs of the referenced ancestor blocks
}

// LinkEdge is a linking predicate L_i between a block and one child
// subquery block. Kind and Cmp are the *normalised* linking operator:
// a conjunct "NOT (x > ALL (...))" analyzes as Kind=CmpSome, Cmp=Le
// without mutating the AST (so the reference evaluator still sees the
// original NOT).
type LinkEdge struct {
	Pred  *SubqueryPred
	Kind  LinkKind
	Cmp   expr.CmpOp
	Child *Block

	// SynNeg records that (Kind, Cmp) came from folding an odd number of
	// NOT wrappers via quantifier duality. The duality is only valid in
	// 3VL; a 2VL planner must recover the syntactic form by undoing the
	// fold (negateKind is involutive) and negating classically.
	// Exists/NotExists and In/NotIn pairs need no such recovery — their
	// duals coincide in both logics — so SynNeg is tracked only for the
	// quantified-comparison and scalar-comparison operators.
	SynNeg bool
}

// Left returns the linking attribute expression (nil for EXISTS forms).
func (l *LinkEdge) Left() Expr { return l.Pred.Left }

// AggInfo describes one aggregate select item of a block.
type AggInfo struct {
	Func algebra.AggFunc
	Col  string // resolved qualified column; "" for COUNT(*)
}

// Block is one analyzed query block (§2's "inner/outer query block").
type Block struct {
	ID       int
	Sel      *Select
	Parent   *Block
	Children []*Block
	Tables   []*BlockTable
	Schema   *relation.Schema // concatenation of the block's table schemas

	// WHERE decomposition into the θ_i / C_ij / L_i of §4.1:
	Local []Expr      // predicates over this block's tables only
	Corr  []CorrPred  // correlated predicates
	Links []*LinkEdge // linking predicates, in syntactic order
	Other []Expr      // conjuncts the planners cannot decompose
	// (subqueries under OR/NOT etc.); only the
	// reference evaluator accepts blocks with these.

	// Presence is the column whose non-NULL marks a real tuple of this
	// block after outer joins: the primary key of the block's first table.
	Presence string

	// AggItems is non-nil when the block is an aggregate query: its select
	// list is entirely aggregate functions (one per item, no GROUP BY).
	// A scalar subquery is an aggregate block with exactly one item.
	AggItems []AggInfo

	// ComplexItems marks a root select list containing subqueries
	// (e.g. "SET salary = (select max(...) ...)" rewritten by DML);
	// only the reference evaluator supports it.
	ComplexItems bool
}

// Agg returns the single aggregate of a scalar-subquery block.
func (b *Block) Agg() (AggInfo, bool) {
	if len(b.AggItems) == 1 {
		return b.AggItems[0], true
	}
	return AggInfo{}, false
}

// LinkedAttr returns the child-side linked attribute (the single SELECT
// item of a quantified/IN subquery), as a resolved qualified name.
// It errors when the select list is not a single plain column.
func (q *Query) LinkedAttr(b *Block) (string, error) {
	if b.Sel.Star || len(b.Sel.Items) != 1 {
		return "", fmt.Errorf("sql: subquery block %d must select exactly one column for IN/SOME/ALL", b.ID)
	}
	c, ok := b.Sel.Items[0].Expr.(*ColRef)
	if !ok {
		return "", fmt.Errorf("sql: subquery block %d select item %q is not a plain column", b.ID, b.Sel.Items[0].Expr)
	}
	r, ok := q.res[c]
	if !ok {
		return "", fmt.Errorf("sql: unresolved column %s", c)
	}
	if r.Block != b {
		return "", fmt.Errorf("sql: subquery select item %s must belong to the subquery block", c)
	}
	return r.Name, nil
}

// Resolve returns the resolution of a column reference recorded during
// analysis.
func (q *Query) Resolve(c *ColRef) (ColRes, bool) {
	r, ok := q.res[c]
	return r, ok
}

// Statement is an analyzed statement tree: a leaf query, or a set
// operation over two statements.
type Statement struct {
	Kind  SetOpKind  // valid when Query is nil
	Query *Query     // leaf
	L, R  *Statement // set-operation operands
}

// Width returns the number of output columns.
func (s *Statement) Width() int {
	if s.Query != nil {
		root := s.Query.Root
		if root.Sel.Star {
			return len(root.Schema.Cols)
		}
		return len(root.Sel.Items)
	}
	return s.L.Width()
}

// Leaves appends the statement's leaf queries in left-to-right order.
func (s *Statement) Leaves() []*Query {
	if s.Query != nil {
		return []*Query{s.Query}
	}
	return append(s.L.Leaves(), s.R.Leaves()...)
}

// Resolver is the catalog view the analyzer binds table references
// against. Both *catalog.Catalog (current snapshot, convenient for
// single-threaded use) and *catalog.Snapshot (an immutable version —
// what concurrent query execution must use so a whole statement binds
// one consistent view) satisfy it.
type Resolver interface {
	Table(name string) (*catalog.Table, error)
}

// AnalyzeStatement resolves a statement tree, checking that set-operation
// operands have the same output width.
func AnalyzeStatement(st Stmt, cat Resolver) (*Statement, error) {
	switch x := st.(type) {
	case *Select:
		q, err := Analyze(x, cat)
		if err != nil {
			return nil, err
		}
		return &Statement{Query: q}, nil
	case *SetOp:
		l, err := AnalyzeStatement(x.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := AnalyzeStatement(x.R, cat)
		if err != nil {
			return nil, err
		}
		if l.Width() != r.Width() {
			return nil, errf(x.Pos, "%s operands have %d and %d columns", x.Kind, l.Width(), r.Width())
		}
		return &Statement{Kind: x.Kind, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("sql: unknown statement type %T", st)
}

// Analyze resolves a parsed statement against the catalog.
func Analyze(sel *Select, cat Resolver) (*Query, error) {
	q := &Query{res: make(map[*ColRef]ColRes)}
	a := &analyzer{cat: cat, q: q, prefixes: make(map[string]int)}
	root, err := a.block(sel, nil)
	if err != nil {
		return nil, err
	}
	q.Root = root
	return q, nil
}

type analyzer struct {
	cat      Resolver
	q        *Query
	prefixes map[string]int // alias → use count, for unique prefixes
}

func (a *analyzer) block(sel *Select, parent *Block) (*Block, error) {
	b := &Block{ID: len(a.q.Blocks), Sel: sel, Parent: parent}
	a.q.Blocks = append(a.q.Blocks, b)
	if parent != nil && (sel.Limit >= 0 || sel.Offset > 0) {
		return nil, fmt.Errorf("sql: LIMIT/OFFSET is only supported on the outermost query (block %d)", b.ID)
	}

	// Resolve FROM tables and build the block schema with unique prefixes.
	b.Schema = &relation.Schema{Name: fmt.Sprintf("block%d", b.ID)}
	seen := make(map[string]bool)
	for _, ref := range sel.From {
		tbl, err := a.cat.Table(ref.Table)
		if err != nil {
			return nil, err
		}
		name := ref.Name()
		if seen[name] {
			return nil, fmt.Errorf("sql: duplicate range variable %q in block %d", name, b.ID)
		}
		seen[name] = true
		prefix := name
		if n := a.prefixes[name]; n > 0 {
			prefix = fmt.Sprintf("%s#%d", name, n+1)
		}
		a.prefixes[name]++
		bt := &BlockTable{Ref: ref, Table: tbl, Prefix: prefix, Schema: prefixSchema(tbl.Rel.Schema, prefix)}
		b.Tables = append(b.Tables, bt)
		b.Schema.Cols = append(b.Schema.Cols, bt.Schema.Cols...)
	}
	b.Presence = b.Tables[0].Prefix + "." + unqualified(b.Tables[0].Table.PK)

	// Resolve the select list (root selects from itself; subquery select
	// lists may in principle reference outer blocks, which the reference
	// evaluator supports). Aggregate items make this an aggregate block:
	// all items must then be aggregates over plain columns.
	if !sel.Star {
		aggCount := 0
		for _, item := range sel.Items {
			if hasSubquery(item.Expr) {
				// Allowed only in the outermost select list; evaluated by
				// the reference engine (planners fall back).
				if parent != nil {
					return nil, fmt.Errorf("sql: subqueries are not supported in a subquery's select list (block %d)", b.ID)
				}
				if err := a.resolveComplex(item.Expr, b); err != nil {
					return nil, err
				}
				b.ComplexItems = true
				continue
			}
			if err := a.resolveExpr(item.Expr, b); err != nil {
				return nil, err
			}
			if fc, ok := item.Expr.(*FuncCall); ok {
				aggCount++
				info, err := a.aggInfo(fc, b)
				if err != nil {
					return nil, err
				}
				b.AggItems = append(b.AggItems, info)
			} else if containsFuncCall(item.Expr) {
				return nil, errf(blockPos(item.Expr), "aggregates must be top-level select items")
			}
		}
		if aggCount > 0 && aggCount != len(sel.Items) {
			return nil, fmt.Errorf("sql: block %d mixes aggregate and non-aggregate select items", b.ID)
		}
	}

	// Decompose WHERE.
	for _, conj := range Conjuncts(sel.Where) {
		if containsAggOutsideSubquery(conj) {
			return nil, fmt.Errorf("sql: aggregate function in WHERE clause of block %d", b.ID)
		}
		if sp, kind, cmp, neg, ok := topLevelSubquery(conj); ok {
			if err := a.resolveScalar(sp.Left, b); err != nil {
				return nil, err
			}
			child, err := a.block(sp.Sel, b)
			if err != nil {
				return nil, err
			}
			if kind != CmpSome && kind != CmpAll {
				neg = false // the fold is 2VL-sound for EXISTS/IN duals
			}
			b.Links = append(b.Links, &LinkEdge{Pred: sp, Kind: kind, Cmp: cmp, Child: child, SynNeg: neg})
			b.Children = append(b.Children, child)
			continue
		}
		if sc, cmp, left, neg, ok := topLevelScalarCmp(conj); ok && !hasSubquery(left) {
			if err := a.resolveExpr(left, b); err != nil {
				return nil, err
			}
			child, err := a.block(sc.Sel, b)
			if err != nil {
				return nil, err
			}
			if _, isAgg := child.Agg(); !isAgg {
				return nil, errf(sc.Pos, "scalar subquery must select exactly one aggregate")
			}
			pred := &SubqueryPred{Kind: CmpScalar, Cmp: cmp, Left: left, Sel: sc.Sel, Pos: sc.Pos}
			b.Links = append(b.Links, &LinkEdge{Pred: pred, Kind: CmpScalar, Cmp: cmp, Child: child, SynNeg: neg})
			b.Children = append(b.Children, child)
			continue
		}
		if hasSubquery(conj) {
			// A subquery buried under OR / comparison etc.: analyzable for
			// the reference evaluator, but not decomposable for planners.
			if err := a.resolveComplex(conj, b); err != nil {
				return nil, err
			}
			b.Other = append(b.Other, conj)
			continue
		}
		outers, err := a.classify(conj, b)
		if err != nil {
			return nil, err
		}
		if len(outers) == 0 {
			b.Local = append(b.Local, conj)
		} else {
			b.Corr = append(b.Corr, CorrPred{E: conj, Outers: outers})
		}
	}

	for _, o := range sel.OrderBy {
		if err := a.resolveExpr(o.Expr, b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// topLevelSubquery recognises a conjunct that IS a linking predicate,
// normalising "NOT <subquery-pred>" into the complementary operator
// (¬(θ SOME) = ¬θ ALL and vice versa — valid in 3VL by quantifier
// duality). The AST itself is left untouched; only the returned
// (kind, cmp) pair is normalised. neg reports NOT-wrapper parity so a
// 2VL planner can recover the syntactic operator.
func topLevelSubquery(e Expr) (*SubqueryPred, LinkKind, expr.CmpOp, bool, bool) {
	switch x := e.(type) {
	case *SubqueryPred:
		return x, x.Kind, x.Cmp, false, true
	case *NotExpr:
		if sp, kind, cmp, neg, ok := topLevelSubquery(x.E); ok {
			nk, nc := negateKind(kind, cmp)
			return sp, nk, nc, !neg, true
		}
	}
	return nil, 0, 0, false, false
}

// topLevelScalarCmp recognises "expr θ (select agg ...)" (either
// orientation, optionally NOT-wrapped) as a CmpScalar linking predicate.
// ¬(a θ s) over a scalar s is a ¬θ s under 3VL (NULLs stay Unknown either
// way), so negation folds into the operator; neg reports the NOT parity
// for planners where the fold is unsound (2VL).
func topLevelScalarCmp(e Expr) (sc *ScalarSub, cmp expr.CmpOp, left Expr, neg, ok bool) {
	switch x := e.(type) {
	case *NotExpr:
		if sc, cmp, left, neg, ok = topLevelScalarCmp(x.E); ok {
			return sc, cmp.Negate(), left, !neg, true
		}
	case *BinOp:
		op, isCmp := cmpOps[x.Op]
		if !isCmp {
			return nil, 0, nil, false, false
		}
		if s, isSub := x.R.(*ScalarSub); isSub {
			if _, both := x.L.(*ScalarSub); both {
				return nil, 0, nil, false, false // scalar-vs-scalar: reference only
			}
			return s, op, x.L, false, true
		}
		if s, isSub := x.L.(*ScalarSub); isSub {
			return s, op.Flip(), x.R, false, true
		}
	}
	return nil, 0, nil, false, false
}

// hasSubquery reports whether e contains any subquery form.
func hasSubquery(e Expr) bool {
	found := false
	Walk(e, func(x Expr) {
		switch x.(type) {
		case *SubqueryPred, *ScalarSub:
			found = true
		}
	})
	return found
}

func containsFuncCall(e Expr) bool {
	found := false
	Walk(e, func(x Expr) {
		if _, ok := x.(*FuncCall); ok {
			found = true
		}
	})
	return found
}

// containsAggOutsideSubquery reports aggregate calls in a WHERE conjunct
// that are not inside a subquery (illegal SQL without HAVING).
func containsAggOutsideSubquery(e Expr) bool {
	return containsFuncCall(e) // walk does not descend into subqueries
}

func blockPos(e Expr) int {
	pos := 0
	Walk(e, func(x Expr) {
		if pos != 0 {
			return
		}
		if fc, ok := x.(*FuncCall); ok {
			pos = fc.Pos
		}
	})
	return pos
}

// aggInfo validates and resolves one aggregate select item: the argument
// must be a plain column of the block itself.
func (a *analyzer) aggInfo(fc *FuncCall, b *Block) (AggInfo, error) {
	var fn algebra.AggFunc
	if fc.Star {
		fn = algebra.AggCountStar
	} else {
		var ok bool
		fn, ok = algebra.AggFuncByName(fc.Name)
		if !ok {
			return AggInfo{}, errf(fc.Pos, "unknown aggregate %q", fc.Name)
		}
	}
	info := AggInfo{Func: fn}
	if fc.Star {
		return info, nil
	}
	c, ok := fc.Arg.(*ColRef)
	if !ok {
		return AggInfo{}, errf(fc.Pos, "aggregate argument must be a plain column, not %q", fc.Arg)
	}
	r, resolved := a.q.res[c]
	if !resolved {
		return AggInfo{}, errf(c.Pos, "unresolved column %s", c)
	}
	if r.Block != b {
		return AggInfo{}, errf(c.Pos, "aggregate argument %s must belong to the aggregating block", c)
	}
	info.Col = r.Name
	return info, nil
}

func negateKind(k LinkKind, cmp expr.CmpOp) (LinkKind, expr.CmpOp) {
	switch k {
	case Exists:
		return NotExists, cmp
	case NotExists:
		return Exists, cmp
	case In:
		return NotIn, expr.Ne
	case NotIn:
		return In, expr.Eq
	case CmpSome:
		return CmpAll, cmp.Negate()
	case CmpAll:
		return CmpSome, cmp.Negate()
	}
	return k, cmp
}

// resolveExpr resolves all column references of a subquery-free expression
// in the scope of block b (searching enclosing blocks for correlation).
func (a *analyzer) resolveExpr(e Expr, b *Block) error {
	var firstErr error
	e.walk(func(x Expr) {
		if firstErr != nil {
			return
		}
		if c, ok := x.(*ColRef); ok {
			if _, err := a.resolveCol(c, b); err != nil {
				firstErr = err
			}
		}
	})
	return firstErr
}

// resolveScalar is resolveExpr tolerating a nil expression (EXISTS forms).
func (a *analyzer) resolveScalar(e Expr, b *Block) error {
	if e == nil {
		return nil
	}
	return a.resolveExpr(e, b)
}

// resolveComplex resolves a conjunct that contains embedded subqueries:
// the scalar parts resolve in b, and each embedded subquery becomes a
// child block whose linking information is left attached to the
// SubqueryPred (the reference evaluator interprets it in place).
func (a *analyzer) resolveComplex(e Expr, b *Block) error {
	var firstErr error
	e.walk(func(x Expr) {
		if firstErr != nil {
			return
		}
		switch n := x.(type) {
		case *ColRef:
			if _, err := a.resolveCol(n, b); err != nil {
				firstErr = err
			}
		case *SubqueryPred:
			child, err := a.block(n.Sel, b)
			if err != nil {
				firstErr = err
				return
			}
			b.Children = append(b.Children, child)
		case *ScalarSub:
			child, err := a.block(n.Sel, b)
			if err != nil {
				firstErr = err
				return
			}
			if _, isAgg := child.Agg(); !isAgg {
				firstErr = errf(n.Pos, "scalar subquery must select exactly one aggregate")
				return
			}
			b.Children = append(b.Children, child)
		}
	})
	return firstErr
}

// classify resolves a subquery-free conjunct and returns the set of
// ancestor block IDs it references (empty = local predicate).
func (a *analyzer) classify(e Expr, b *Block) (map[int]bool, error) {
	outers := make(map[int]bool)
	var firstErr error
	e.walk(func(x Expr) {
		if firstErr != nil {
			return
		}
		if c, ok := x.(*ColRef); ok {
			res, err := a.resolveCol(c, b)
			if err != nil {
				firstErr = err
				return
			}
			if res.Block != b {
				outers[res.Block.ID] = true
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if len(outers) == 0 {
		return nil, nil
	}
	return outers, nil
}

// resolveCol resolves one column reference starting at block b and walking
// outward (SQL's correlation rule). Results are memoised in the query.
func (a *analyzer) resolveCol(c *ColRef, b *Block) (ColRes, error) {
	if r, ok := a.q.res[c]; ok {
		return r, nil
	}
	for blk := b; blk != nil; blk = blk.Parent {
		var matches []ColRes
		for _, bt := range blk.Tables {
			if c.Qualifier != "" && c.Qualifier != bt.Ref.Name() {
				continue
			}
			if i := bt.Schema.ColIndex(bt.Prefix + "." + c.Column); i >= 0 {
				matches = append(matches, ColRes{Block: blk, Name: bt.Schema.Cols[i].Name})
			}
		}
		if len(matches) > 1 {
			return ColRes{}, errf(c.Pos, "ambiguous column %s in block %d", c, blk.ID)
		}
		if len(matches) == 1 {
			a.q.res[c] = matches[0]
			return matches[0], nil
		}
		// A qualifier that names a range variable of this block but whose
		// column is missing must not silently search outward.
		if c.Qualifier != "" {
			for _, bt := range blk.Tables {
				if c.Qualifier == bt.Ref.Name() {
					return ColRes{}, errf(c.Pos, "table %q has no column %q", c.Qualifier, c.Column)
				}
			}
		}
	}
	return ColRes{}, errf(c.Pos, "unknown column %s", c)
}

// Lower converts a resolved, subquery-free AST expression into an
// executable expression over qualified column names.
func (q *Query) Lower(e Expr) (expr.Expr, error) {
	switch x := e.(type) {
	case *ColRef:
		r, ok := q.res[x]
		if !ok {
			return nil, fmt.Errorf("sql: unresolved column %s", x)
		}
		return expr.Col(r.Name), nil
	case *Lit:
		return expr.Lit{V: x.V}, nil
	case *BinOp:
		l, err := q.Lower(x.L)
		if err != nil {
			return nil, err
		}
		r, err := q.Lower(x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "AND":
			return expr.And(l, r), nil
		case "OR":
			return expr.Or(l, r), nil
		case "+":
			return expr.Arith{Op: expr.Add, L: l, R: r}, nil
		case "-":
			return expr.Arith{Op: expr.Sub, L: l, R: r}, nil
		case "*":
			return expr.Arith{Op: expr.Mul, L: l, R: r}, nil
		case "/":
			return expr.Arith{Op: expr.Div, L: l, R: r}, nil
		}
		if op, ok := cmpOps[x.Op]; ok {
			return expr.Compare(op, l, r), nil
		}
		return nil, fmt.Errorf("sql: cannot lower operator %q", x.Op)
	case *NotExpr:
		inner, err := q.Lower(x.E)
		if err != nil {
			return nil, err
		}
		return expr.Not{E: inner}, nil
	case *IsNullExpr:
		inner, err := q.Lower(x.E)
		if err != nil {
			return nil, err
		}
		return expr.IsNull{E: inner, Negate: x.Negate}, nil
	case *SubqueryPred:
		return nil, fmt.Errorf("sql: subquery predicate %s cannot be lowered directly", x)
	case *ScalarSub:
		return nil, fmt.Errorf("sql: scalar subquery %s cannot be lowered directly", x)
	case *FuncCall:
		return nil, fmt.Errorf("sql: aggregate %s cannot be lowered directly", x)
	}
	return nil, fmt.Errorf("sql: cannot lower %T", e)
}

// LowerAll lowers and conjoins a slice of AST expressions.
func (q *Query) LowerAll(es []Expr) (expr.Expr, error) {
	var parts []expr.Expr
	for _, e := range es {
		l, err := q.Lower(e)
		if err != nil {
			return nil, err
		}
		parts = append(parts, l)
	}
	return expr.And(parts...), nil
}

func prefixSchema(s *relation.Schema, prefix string) *relation.Schema {
	out := &relation.Schema{Name: prefix}
	for _, c := range s.Cols {
		out.Cols = append(out.Cols, relation.Column{Name: prefix + "." + unqualified(c.Name), Type: c.Type})
	}
	return out
}

func unqualified(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}
