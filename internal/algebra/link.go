package algebra

import (
	"fmt"

	"nra/internal/expr"
	"nra/internal/relation"
	"nra/internal/value"
)

// Quant is the quantifier of a quantified linking predicate.
type Quant uint8

// SOME/ANY and ALL.
const (
	Some Quant = iota
	All
)

// String returns "SOME" or "ALL".
func (q Quant) String() string {
	if q == Some {
		return "SOME"
	}
	return "ALL"
}

// EmptyTest selects the set-emptiness forms of Definition 4:
// {B} = ∅ (NOT EXISTS) and {B} ≠ ∅ (EXISTS).
type EmptyTest uint8

// The emptiness test variants. NoEmptyTest means the predicate is the
// quantified comparison form A θ L {B}.
const (
	NoEmptyTest EmptyTest = iota
	IsEmpty
	NotEmpty
)

// LinkPred is a linking predicate over a one-level nested attribute
// (Definition 4). Presence names the inner column — always the inner
// relation's primary key — whose NULL marks a padding tuple produced by a
// left outer join or a pseudo-selection; such tuples are not elements of
// the set. This built-in presence filtering realises the paper's
// "… ∨ T.L is null" side conditions without special-casing.
type LinkPred struct {
	Attr     string       // linking attribute A; unused for emptiness tests
	Const    *value.Value // constant linking value (e.g. "5 < ALL (...)"); overrides Attr
	Op       expr.CmpOp   // θ
	Quant    Quant        // SOME or ALL
	Sub      string       // name of the nested attribute
	Linked   string       // linked attribute B inside Sub
	Presence string       // inner PK column inside Sub; "" = all members real
	Empty    EmptyTest
	// Agg turns the predicate into a scalar-aggregate comparison
	// A θ agg{B}: the group's real members are folded by the aggregate
	// and compared once (Quant is ignored). The empty group behaves per
	// SQL: COUNT yields 0, the others NULL (making θ Unknown) — which is
	// exactly why the max/count rewrites of §2 are not equivalent to
	// quantified predicates.
	Agg AggFunc
	// TwoValued evaluates every member (and aggregate) comparison under
	// 2VL: a comparison involving NULL is False, never Unknown. The
	// predicate's verdict is then always True or False.
	TwoValued bool
	// Negate classically negates the final verdict — how 2VL planners
	// encode NOT IN (¬ =SOME) and NOT-wrapped quantifiers, whose 3VL
	// duals are not 2VL-equivalent.
	Negate bool
}

// SomePred builds A θ SOME {B}. (IN is =SOME.)
func SomePred(attr string, op expr.CmpOp, sub, linked, presence string) LinkPred {
	return LinkPred{Attr: attr, Op: op, Quant: Some, Sub: sub, Linked: linked, Presence: presence}
}

// AllPred builds A θ ALL {B}. (NOT IN is <>ALL.)
func AllPred(attr string, op expr.CmpOp, sub, linked, presence string) LinkPred {
	return LinkPred{Attr: attr, Op: op, Quant: All, Sub: sub, Linked: linked, Presence: presence}
}

// ExistsPred builds {B} ≠ ∅.
func ExistsPred(sub, presence string) LinkPred {
	return LinkPred{Sub: sub, Presence: presence, Empty: NotEmpty}
}

// NotExistsPred builds {B} = ∅.
func NotExistsPred(sub, presence string) LinkPred {
	return LinkPred{Sub: sub, Presence: presence, Empty: IsEmpty}
}

// String renders the predicate in the paper's notation, e.g.
// "S.H >ALL {T.J}" or "{lineitem} = ∅".
func (p LinkPred) String() string {
	switch p.Empty {
	case IsEmpty:
		return fmt.Sprintf("{%s} = ∅", p.Sub)
	case NotEmpty:
		return fmt.Sprintf("{%s} ≠ ∅", p.Sub)
	}
	attr := p.Attr
	if p.Const != nil {
		attr = p.Const.String()
	}
	if p.Agg != AggNone {
		return fmt.Sprintf("%s %s %s{%s}", attr, p.Op, p.Agg, p.Linked)
	}
	return fmt.Sprintf("%s %s%s {%s}", attr, p.Op, p.Quant, p.Linked)
}

// Bound is a LinkPred resolved against a concrete schema, ready for
// per-tuple evaluation.
type Bound struct {
	pred            LinkPred
	attrIdx, subIdx int
	linkedIdx       int
	presIdx         int // -1 when Presence == ""
}

// Bind resolves the predicate's attribute references against s.
func (p LinkPred) Bind(s *relation.Schema) (*Bound, error) {
	b := &Bound{pred: p, attrIdx: -1, presIdx: -1, linkedIdx: -1}
	b.subIdx = s.SubIndex(p.Sub)
	if b.subIdx < 0 {
		return nil, fmt.Errorf("link: no nested attribute %q in %s", p.Sub, s)
	}
	inner := s.Subs[b.subIdx].Schema
	if p.Presence != "" {
		b.presIdx = inner.ColIndex(p.Presence)
		if b.presIdx < 0 {
			return nil, fmt.Errorf("link: presence column %q not in nested attribute %s", p.Presence, inner)
		}
	}
	if p.Empty == NoEmptyTest {
		if p.Const == nil {
			b.attrIdx = s.ColIndex(p.Attr)
			if b.attrIdx < 0 {
				return nil, fmt.Errorf("link: linking attribute %q not in %s", p.Attr, s)
			}
		}
		if p.Agg != AggCountStar {
			b.linkedIdx = inner.ColIndex(p.Linked)
			if b.linkedIdx < 0 {
				return nil, fmt.Errorf("link: linked attribute %q not in nested attribute %s", p.Linked, inner)
			}
		}
	}
	return b, nil
}

// Eval evaluates the linking predicate on one nested tuple under SQL
// 3VL semantics:
//
//   - θ ALL over the empty set is True; False dominates; otherwise a NULL
//     comparison makes the result Unknown.
//   - θ SOME over the empty set is False; True dominates; otherwise a NULL
//     comparison makes the result Unknown.
//   - The emptiness tests (EXISTS / NOT EXISTS) are two-valued.
//
// Members whose presence column is NULL are padding, not set elements.
//
// With TwoValued set, each member (or aggregate) comparison collapses
// Unknown to False before the quantifier fold; with Negate set the final
// verdict is classically negated.
func (b *Bound) Eval(t relation.Tuple) (value.Tri, error) {
	tri, err := b.eval(t)
	if err != nil {
		return value.Unknown, err
	}
	if b.pred.Negate {
		tri = tri.Not()
	}
	return tri, nil
}

// cmp applies θ to one pair, collapsing Unknown under 2VL.
func (b *Bound) cmp(a, m value.Value) (value.Tri, error) {
	tri, err := b.pred.Op.Apply(a, m)
	if err != nil {
		return value.Unknown, err
	}
	if b.pred.TwoValued && tri == value.Unknown {
		tri = value.False
	}
	return tri, nil
}

func (b *Bound) eval(t relation.Tuple) (value.Tri, error) {
	g := t.Groups[b.subIdx]
	switch b.pred.Empty {
	case IsEmpty:
		return value.TriOf(b.countReal(g) == 0), nil
	case NotEmpty:
		return value.TriOf(b.countReal(g) > 0), nil
	}
	var a value.Value
	if b.pred.Const != nil {
		a = *b.pred.Const
	} else {
		a = t.Atoms[b.attrIdx]
	}
	if b.pred.Agg != AggNone {
		state := NewAggState(b.pred.Agg)
		if g != nil {
			for _, m := range g.Tuples {
				if b.presIdx >= 0 && m.Atoms[b.presIdx].IsNull() {
					continue
				}
				if b.pred.Agg == AggCountStar {
					state.AddRow()
					continue
				}
				if err := state.Add(m.Atoms[b.linkedIdx]); err != nil {
					return value.Unknown, err
				}
			}
		}
		res := state.Result()
		tri, err := b.pred.Op.Apply(a, res)
		if err != nil {
			return value.Unknown, err
		}
		// 2VL collapses a NULL comparison to False — except when the NULL
		// is the aggregate itself (an empty-group SUM/AVG/MIN/MAX), a
		// value the base data never held. Keeping 3VL's Unknown there
		// makes 2VL ≡ 3VL on NULL-free data.
		if b.pred.TwoValued && tri == value.Unknown && !res.IsNull() {
			tri = value.False
		}
		return tri, nil
	}
	if b.pred.Quant == All {
		res := value.True
		if g != nil {
			for _, m := range g.Tuples {
				if b.presIdx >= 0 && m.Atoms[b.presIdx].IsNull() {
					continue
				}
				tri, err := b.cmp(a, m.Atoms[b.linkedIdx])
				if err != nil {
					return value.Unknown, err
				}
				res = res.And(tri)
				if res == value.False {
					return value.False, nil
				}
			}
		}
		return res, nil
	}
	res := value.False
	if g != nil {
		for _, m := range g.Tuples {
			if b.presIdx >= 0 && m.Atoms[b.presIdx].IsNull() {
				continue
			}
			tri, err := b.cmp(a, m.Atoms[b.linkedIdx])
			if err != nil {
				return value.Unknown, err
			}
			res = res.Or(tri)
			if res == value.True {
				return value.True, nil
			}
		}
	}
	return res, nil
}

func (b *Bound) countReal(g *relation.Relation) int {
	if g == nil {
		return 0
	}
	if b.presIdx < 0 {
		return len(g.Tuples)
	}
	n := 0
	for _, m := range g.Tuples {
		if !m.Atoms[b.presIdx].IsNull() {
			n++
		}
	}
	return n
}

// LinkSelect is the strict linking selection σ_C of Definition 5: tuples
// whose linking predicate evaluates to True survive; all others are
// discarded. It is used for the outermost (or all-positive) linking
// predicate, where a failing tuple can never contribute to an answer.
func LinkSelect(r *relation.Relation, p LinkPred) (*relation.Relation, error) {
	b, err := p.Bind(r.Schema)
	if err != nil {
		return nil, err
	}
	out := relation.New(r.Schema)
	for _, t := range r.Tuples {
		tri, err := b.Eval(t)
		if err != nil {
			return nil, err
		}
		if tri.IsTrue() {
			out.Append(t)
		}
	}
	return out, nil
}

// LinkSelectPad is the pseudo-selection σ̄_{C,A} of Definition 5: tuples
// that pass keep their original form; tuples that fail are kept but their
// attributes in pad are replaced with NULL. Because pad always includes
// the failing level's primary key, a padded tuple stops counting as a set
// element one level up — which is what makes negative and mixed linking
// operators composable (the paper's Temp3 example).
func LinkSelectPad(r *relation.Relation, p LinkPred, pad []string) (*relation.Relation, error) {
	b, err := p.Bind(r.Schema)
	if err != nil {
		return nil, err
	}
	padIdx := make([]int, len(pad))
	for i, c := range pad {
		j := r.Schema.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("link: pad column %q not in %s", c, r.Schema)
		}
		padIdx[i] = j
	}
	out := relation.New(r.Schema)
	for _, t := range r.Tuples {
		tri, err := b.Eval(t)
		if err != nil {
			return nil, err
		}
		if tri.IsTrue() {
			out.Append(t)
			continue
		}
		nt := relation.Tuple{Atoms: append([]value.Value(nil), t.Atoms...), Groups: t.Groups}
		for _, j := range padIdx {
			nt.Atoms[j] = value.Null
		}
		out.Append(nt)
	}
	return out, nil
}

// AddGroup attaches the same relation g as a nested attribute of every
// tuple of r — the "virtual Cartesian product" used for non-correlated
// subqueries (§4: "non-correlated subqueries are executed once, and the
// result is used by every tuple"). The group is shared, not copied.
func AddGroup(r *relation.Relation, subName string, g *relation.Relation) *relation.Relation {
	schema := &relation.Schema{Name: r.Schema.Name, Cols: r.Schema.Cols}
	schema.Subs = append(append([]relation.Sub{}, r.Schema.Subs...), relation.Sub{Name: subName, Schema: g.Schema})
	out := relation.New(schema)
	for _, t := range r.Tuples {
		nt := relation.Tuple{Atoms: t.Atoms}
		nt.Groups = append(append([]*relation.Relation{}, t.Groups...), g)
		out.Append(nt)
	}
	return out
}

// Within applies f to the nested relation of the named subschema of every
// tuple, replacing the group with f's result. It is how linking selections
// are applied at depth ≥ 1 on the fused multi-level nests of §4.2.1.
func Within(r *relation.Relation, sub string, f func(*relation.Relation) (*relation.Relation, error)) (*relation.Relation, error) {
	si := r.Schema.SubIndex(sub)
	if si < 0 {
		return nil, fmt.Errorf("within: no subschema %q in %s", sub, r.Schema)
	}
	var newInner *relation.Schema
	out := relation.New(r.Schema)
	for _, t := range r.Tuples {
		g := t.Groups[si]
		if g == nil {
			g = relation.New(r.Schema.Subs[si].Schema)
		}
		ng, err := f(g)
		if err != nil {
			return nil, err
		}
		if newInner == nil {
			newInner = ng.Schema
			schema := &relation.Schema{Name: r.Schema.Name, Cols: r.Schema.Cols}
			schema.Subs = append([]relation.Sub{}, r.Schema.Subs...)
			schema.Subs[si] = relation.Sub{Name: sub, Schema: newInner}
			out.Schema = schema
		}
		nt := relation.Tuple{Atoms: t.Atoms}
		nt.Groups = append([]*relation.Relation{}, t.Groups...)
		nt.Groups[si] = ng
		out.Append(nt)
	}
	return out, nil
}
