// Package exec implements the physical execution operators of the
// optimized nested relational approach. Every operator is a function
// that takes whole relations and returns a materialised relation, as
// the paper's Algorithm 1 evaluates one operator at a time. Pipelining
// happens inside an operator, not between operators: the fused nest +
// linking selection of §4.2.2 (one pass instead of two) and the fully
// fused multi-level nest chain of §4.2.1, where only the first nest physically
// reorders tuples and all higher-level nests are conceptual — a single
// sort followed by a single scan evaluates every linking predicate of a
// linear query.
//
// It also hosts the result-finishing step (projection, DISTINCT,
// ORDER BY) shared by all execution strategies.
package exec

import (
	"fmt"

	"nra/internal/algebra"
	"nra/internal/expr"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/value"
)

// LinkSpec describes one linking predicate for the fused operators, with
// every column given as an index into the flat input schema (linked/
// presence columns) or the group-prefix columns (the linking attribute).
type LinkSpec struct {
	Pred algebra.LinkPred // semantic description (Attr/Const/Op/Quant/Empty)

	AttrIdx   int // flat index of the linking attribute; -1 when Const
	LinkedIdx int // flat index of the linked attribute B
	PresIdx   int // flat index of the member block's presence (PK) column
}

// quantState is the incremental 3VL (or aggregate) accumulator for one
// group.
type quantState struct {
	res     value.Tri
	members int
	agg     *algebra.AggState // non-nil for scalar-aggregate links
}

func (s *quantState) reset(spec *LinkSpec) {
	s.members = 0
	s.agg = nil
	switch {
	case spec.Pred.Agg != algebra.AggNone:
		s.agg = algebra.NewAggState(spec.Pred.Agg)
	case spec.Pred.Empty != algebra.NoEmptyTest:
		s.res = value.False // interpreted via members count
	case spec.Pred.Quant == algebra.All:
		s.res = value.True
	default:
		s.res = value.False
	}
}

// addMember folds one real member into the accumulator (a quantified
// comparison, an aggregate fold, or an existence count).
func (s *quantState) addMember(spec *LinkSpec, a, b value.Value) error {
	s.members++
	if s.agg != nil {
		if spec.Pred.Agg == algebra.AggCountStar {
			s.agg.AddRow()
			return nil
		}
		return s.agg.Add(b)
	}
	if spec.Pred.Empty != algebra.NoEmptyTest {
		return nil
	}
	tri, err := specCmp(spec, a, b)
	if err != nil {
		return err
	}
	if spec.Pred.Quant == algebra.All {
		s.res = s.res.And(tri)
	} else {
		s.res = s.res.Or(tri)
	}
	return nil
}

// specCmp applies the spec's θ, collapsing Unknown to False under a 2VL
// predicate (mirrors algebra.Bound).
func specCmp(spec *LinkSpec, a, b value.Value) (value.Tri, error) {
	tri, err := spec.Pred.Op.Apply(a, b)
	if err != nil {
		return value.Unknown, err
	}
	if spec.Pred.TwoValued && tri == value.Unknown {
		tri = value.False
	}
	return tri, nil
}

// verdict returns the link predicate's result for the closed group —
// 3VL, or 2VL with classical negation when the spec says so. attr is the
// group's linking-attribute value (needed for aggregate links, whose
// comparison happens once per group).
func (s *quantState) verdict(spec *LinkSpec, attr value.Value) (value.Tri, error) {
	tri, err := s.rawVerdict(spec, attr)
	if err != nil {
		return value.Unknown, err
	}
	if spec.Pred.Negate {
		tri = tri.Not()
	}
	return tri, nil
}

func (s *quantState) rawVerdict(spec *LinkSpec, attr value.Value) (value.Tri, error) {
	if s.agg != nil {
		res := s.agg.Result()
		tri, err := spec.Pred.Op.Apply(attr, res)
		if err != nil {
			return value.Unknown, err
		}
		// 2VL collapses a NULL comparison to False — except when the NULL
		// is the aggregate itself (SUM/AVG/MIN/MAX over an empty group),
		// a value the base data never held. Keeping 3VL's Unknown there
		// makes 2VL ≡ 3VL on NULL-free data (mirrors algebra.Bound and
		// the reference evaluator).
		if spec.Pred.TwoValued && tri == value.Unknown && !res.IsNull() {
			tri = value.False
		}
		return tri, nil
	}
	switch spec.Pred.Empty {
	case algebra.IsEmpty:
		return value.TriOf(s.members == 0), nil
	case algebra.NotEmpty:
		return value.TriOf(s.members > 0), nil
	}
	return s.res, nil
}

// NestLink is the fused single-level nest + linking selection (§4.2.2):
// semantically identical to
//
//	DropSub(LinkSelect[Pad](Nest(rel, by, keep, sub), pred), sub)
//
// but executed as one sort plus one scan, never materialising the nested
// groups. keyCols are the columns whose values identify a group (the
// primary keys of the outer levels — cheaper than comparing all by-cols,
// and equivalent because keys determine their tuples). by lists the output
// columns; pad ("" = strict mode) lists columns NULLed on failure.
//
// The pre-nest sort is the operator's working state: under a memory
// budget that the sorted copy exceeds, it degrades to the external merge
// sort (spillSortBy), preserving the exact stable order.
func NestLink(ec *ExecContext, rel *relation.Relation, keyCols, by []string, spec *LinkSpec, pad []string) (res *relation.Relation, err error) {
	defer Guard("nestlink", &err)
	if ec.Tracing() {
		sp := ec.StartSpan("nestlink", obsv.KindNestLink)
		sp.AddRowsIn(int64(rel.Len()))
		defer func() {
			if res != nil {
				sp.AddRowsOut(int64(res.Len()))
			}
			sp.End()
		}()
	}
	plan, err := prepareNestLink(rel.Schema, keyCols, by, spec, pad)
	if err != nil {
		return nil, err
	}
	sorted, _, err := spillSortBy(ec, "nestlink/sort", rel.Tuples, plan.keyIdx, rel.Schema)
	if err != nil {
		return nil, err
	}
	return plan.scan(ec, sorted)
}

// nestLinkPlan is the resolved column machinery of one fused nest +
// linking selection: prepareNestLink resolves it once, and scan runs the
// single pass over the sorted input.
type nestLinkPlan struct {
	keyIdx, byIdx []int
	padIdx        []int // positions in the OUTPUT row to pad; nil = strict
	outSchema     *relation.Schema
	spec          *LinkSpec
}

func prepareNestLink(schema *relation.Schema, keyCols, by []string, spec *LinkSpec, pad []string) (*nestLinkPlan, error) {
	keyIdx, err := colIdxs(schema, keyCols)
	if err != nil {
		return nil, fmt.Errorf("nestlink: %w", err)
	}
	byIdx, err := colIdxs(schema, by)
	if err != nil {
		return nil, fmt.Errorf("nestlink: %w", err)
	}
	outSchema := &relation.Schema{Name: schema.Name}
	for _, j := range byIdx {
		outSchema.Cols = append(outSchema.Cols, schema.Cols[j])
	}
	var padIdx []int
	if pad != nil {
		padIdx = make([]int, 0, len(pad))
		for _, c := range pad {
			found := -1
			for oi, col := range outSchema.Cols {
				if col.Name == c {
					found = oi
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("nestlink: pad column %q not among output columns", c)
			}
			padIdx = append(padIdx, found)
		}
	}
	return &nestLinkPlan{keyIdx: keyIdx, byIdx: byIdx, padIdx: padIdx, outSchema: outSchema, spec: spec}, nil
}

// scan runs the fused single-pass nest + linking selection over tuples,
// which must be sorted by the group key and must contain only whole
// groups (a group never spans two scans). Cancellation of ec is observed
// every few hundred tuples.
func (pl *nestLinkPlan) scan(ec *ExecContext, tuples []relation.Tuple) (*relation.Relation, error) {
	spec := pl.spec
	out := relation.New(pl.outSchema)
	var (
		state   quantState
		started bool
		lastKey string
		rep     relation.Tuple // representative flat row of current group
	)
	emit := func() error {
		v, err := state.verdict(spec, linkAttr(spec, rep))
		if err != nil {
			return err
		}
		row := relation.Tuple{Atoms: make([]value.Value, len(pl.byIdx))}
		for i, j := range pl.byIdx {
			row.Atoms[i] = rep.Atoms[j]
		}
		if v.IsTrue() {
			out.Append(row)
			return nil
		}
		if pl.padIdx == nil {
			return nil // strict: discard
		}
		for _, oi := range pl.padIdx {
			row.Atoms[oi] = value.Null
		}
		out.Append(row)
		return nil
	}

	for n, t := range tuples {
		if n&255 == 0 {
			if err := ec.Check("nestlink/scan"); err != nil {
				return nil, err
			}
		}
		k := t.KeyOn(pl.keyIdx)
		if !started || k != lastKey {
			if started {
				if err := emit(); err != nil {
					return nil, err
				}
			}
			started = true
			lastKey = k
			rep = t
			state.reset(spec)
		}
		if t.Atoms[spec.PresIdx].IsNull() {
			continue // padding, not a set member
		}
		if err := state.addMember(spec, linkAttr(spec, t), linkedVal(spec, t)); err != nil {
			return nil, err
		}
	}
	if started {
		if err := emit(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// linkedVal fetches the member's linked-attribute value; emptiness tests
// have no linked attribute.
func linkedVal(spec *LinkSpec, t relation.Tuple) value.Value {
	if spec.LinkedIdx < 0 {
		return value.Null
	}
	return t.Atoms[spec.LinkedIdx]
}

func linkAttr(spec *LinkSpec, t relation.Tuple) value.Value {
	if spec.Pred.Const != nil {
		return *spec.Pred.Const
	}
	if spec.AttrIdx < 0 {
		return value.Null
	}
	return t.Atoms[spec.AttrIdx]
}

func colIdxs(s *relation.Schema, cols []string) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		j := s.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("no column %q in %s", c, s)
		}
		out[i] = j
	}
	return out, nil
}

// ChainLevel describes one level of a fully fused nest chain (§4.2.1) for
// a linear query. Level i groups by the key columns of blocks 0..i and
// evaluates the linking predicate between block i and block i+1 over the
// members contributed from below.
type ChainLevel struct {
	KeyCols []string  // this level's own group-key columns (block i's PKs)
	Spec    *LinkSpec // the link L_{i+1} between block i and block i+1

	keyIdx []int
}

// NestLinkChain evaluates a whole linear nested query in one sort plus
// one scan. levels[0] is the outermost block; levels[i].Spec is the
// linking predicate L_{i+1} between block i and block i+1 — one entry per
// link, so len(levels) = blocks − 1. outBy lists the output columns (the
// root block's needed columns). The flat input is the left-deep outer
// join of all blocks with selections pushed down.
//
// Only the sort physically reorders tuples; all higher-level nests are
// conceptual (a higher level groups by a prefix of the lower level's
// sort key), exactly the observation of §4.2.1. As in NestLink, the sort
// degrades to an external merge under memory pressure.
func NestLinkChain(ec *ExecContext, rel *relation.Relation, levels []ChainLevel, outBy []string) (res *relation.Relation, err error) {
	defer Guard("nestlinkchain", &err)
	if ec.Tracing() {
		sp := ec.StartSpan(fmt.Sprintf("nestlinkchain (%d levels)", len(levels)), obsv.KindChain)
		sp.AddRowsIn(int64(rel.Len()))
		defer func() {
			if res != nil {
				sp.AddRowsOut(int64(res.Len()))
			}
			sp.End()
		}()
	}
	plan, err := prepareChain(rel.Schema, levels, outBy)
	if err != nil {
		return nil, err
	}
	sorted, _, err := spillSortBy(ec, "nestlink/sort", rel.Tuples, plan.sortIdx, rel.Schema)
	if err != nil {
		return nil, err
	}
	return plan.scan(ec, sorted)
}

// chainPlan is the resolved column machinery of a fully fused nest chain:
// prepareChain resolves it once, and scan runs the single pass over the
// sorted input.
type chainPlan struct {
	levels    []ChainLevel
	outIdx    []int
	sortCols  []string
	sortIdx   []int
	outSchema *relation.Schema
}

func prepareChain(schema *relation.Schema, levels []ChainLevel, outBy []string) (*chainPlan, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("nestlinkchain: no levels")
	}
	for i := range levels {
		idx, err := colIdxs(schema, levels[i].KeyCols)
		if err != nil {
			return nil, fmt.Errorf("nestlinkchain: %w", err)
		}
		levels[i].keyIdx = idx
	}
	outIdx, err := colIdxs(schema, outBy)
	if err != nil {
		return nil, fmt.Errorf("nestlinkchain: %w", err)
	}

	// Sort by the concatenation of all level keys: the single physical
	// reordering of §4.2.1.
	var sortCols []string
	var sortIdx []int
	for i := range levels {
		sortCols = append(sortCols, levels[i].KeyCols...)
		sortIdx = append(sortIdx, levels[i].keyIdx...)
	}
	outSchema := &relation.Schema{Name: "result"}
	for _, j := range outIdx {
		outSchema.Cols = append(outSchema.Cols, schema.Cols[j])
	}
	return &chainPlan{levels: levels, outIdx: outIdx, sortCols: sortCols, sortIdx: sortIdx, outSchema: outSchema}, nil
}

// scan evaluates the whole chain over tuples, which must be sorted by the
// concatenated level keys and must contain only whole outermost-level
// groups (a level-0 group never spans two scans). Cancellation of ec is
// observed every few hundred tuples.
func (cp *chainPlan) scan(ec *ExecContext, tuples []relation.Tuple) (*relation.Relation, error) {
	levels, outIdx := cp.levels, cp.outIdx
	out := relation.New(cp.outSchema)

	n := len(levels)
	states := make([]quantState, n)   // states[i] accumulates link L_{i+1} of levels[i]
	reps := make([]relation.Tuple, n) // representative row per open group
	keys := make([]string, n)
	started := false

	// closeLevel finalises the group at level i (innermost = n-1): its
	// verdict decides whether level i's block tuple is a member of the set
	// feeding level i-1, or — at level 0 — whether the root tuple is
	// emitted.
	closeLevel := func(i int) error {
		v, err := states[i].verdict(levels[i].Spec, linkAttr(levels[i].Spec, reps[i]))
		if err != nil {
			return err
		}
		if i == 0 {
			if v.IsTrue() {
				row := relation.Tuple{Atoms: make([]value.Value, len(outIdx))}
				for oi, j := range outIdx {
					row.Atoms[oi] = reps[0].Atoms[j]
				}
				out.Append(row)
			}
			return nil
		}
		// Level i's block tuple is a real member for level i-1 iff it is
		// not outer-join padding and its own link predicate held.
		up := levels[i-1].Spec
		if !v.IsTrue() {
			return nil
		}
		if reps[i].Atoms[up.PresIdx].IsNull() {
			return nil
		}
		return states[i-1].addMember(up, linkAttr(up, reps[i]), linkedVal(up, reps[i]))
	}

	for pos, t := range tuples {
		if pos&255 == 0 {
			if err := ec.Check("nestlinkchain/scan"); err != nil {
				return nil, err
			}
		}
		// Find the outermost level whose key changed.
		changed := n
		if !started {
			changed = 0
		} else {
			for i := 0; i < n; i++ {
				if t.KeyOn(levels[i].keyIdx) != keys[i] {
					changed = i
					break
				}
			}
		}
		if changed < n {
			if started {
				for i := n - 1; i >= changed; i-- {
					if err := closeLevel(i); err != nil {
						return nil, err
					}
				}
			}
			for i := changed; i < n; i++ {
				states[i].reset(levels[i].Spec)
				reps[i] = t
				keys[i] = t.KeyOn(levels[i].keyIdx)
			}
			started = true
		}
		// The flat row contributes a member of the deepest set.
		deep := levels[n-1].Spec
		if !t.Atoms[deep.PresIdx].IsNull() {
			if err := states[n-1].addMember(deep, linkAttr(deep, t), linkedVal(deep, t)); err != nil {
				return nil, err
			}
		}
	}
	if started {
		for i := n - 1; i >= 0; i-- {
			if err := closeLevel(i); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SelectItem is one output column of the final projection: a name and an
// expression over the root block's columns.
type SelectItem struct {
	Name string
	Expr expr.Expr
}

// Finish evaluates items over rel, applies distinct, and sorts by the
// given output-column indexes (negative index = descending on ^idx).
func Finish(rel *relation.Relation, items []SelectItem, distinct bool, orderBy []OrderKey) (*relation.Relation, error) {
	outSchema := &relation.Schema{Name: "result"}
	compiled := make([]*expr.Compiled, len(items))
	for i, it := range items {
		outSchema.Cols = append(outSchema.Cols, relation.Column{Name: it.Name, Type: relation.TAny})
		c, err := expr.Compile(it.Expr, rel.Schema)
		if err != nil {
			return nil, fmt.Errorf("finish: %w", err)
		}
		compiled[i] = c
	}
	out := relation.New(outSchema)
	for _, t := range rel.Tuples {
		row := relation.Tuple{Atoms: make([]value.Value, len(items))}
		for i, c := range compiled {
			v, err := c.Eval(t)
			if err != nil {
				return nil, fmt.Errorf("finish: %w", err)
			}
			row.Atoms[i] = v
		}
		out.Append(row)
	}
	if distinct {
		out = algebra.Distinct(out)
	}
	if len(orderBy) > 0 {
		sortRows(out, orderBy)
	}
	return out, nil
}

// OrderKey is one ORDER BY key over the output columns.
type OrderKey struct {
	Col  int
	Desc bool
}

func sortRows(r *relation.Relation, keys []OrderKey) {
	ts := r.Tuples
	// Simple stable insertion-free approach: use sort.SliceStable inline.
	sortSliceStable(ts, func(a, b relation.Tuple) bool {
		for _, k := range keys {
			va, vb := a.Atoms[k.Col], b.Atoms[k.Col]
			if value.Identical(va, vb) {
				continue
			}
			less := value.Less(va, vb)
			if k.Desc {
				return !less
			}
			return less
		}
		return false
	})
}
