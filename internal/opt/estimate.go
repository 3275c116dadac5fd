// Package opt is the cost-based physical planner's brain: a cardinality
// estimator over the statistics of internal/stats — selections, joins,
// and all six linking operators with NULL-fraction-aware formulas for
// the NOT IN / ALL pitfalls the paper centres on — plus a cost model
// over the engine's physical operators (hash join, semijoin, fused
// nest + linking selection, grace-join / external-sort spilling).
//
// The estimator is deliberately all-or-nothing: internal/core only
// constructs one when every base table in the query carries fresh
// statistics, so a query with missing or stale stats plans exactly as
// the heuristic planner always has (plan parity).
package opt

import (
	"math"

	"nra/internal/expr"
	"nra/internal/relation"
	"nra/internal/stats"
	"nra/internal/value"
)

// Default selectivities when no statistics resolve an expression
// (System R's classic constants).
const (
	DefaultEq    = 0.1
	DefaultRange = 1.0 / 3
	DefaultSel   = 0.25
)

// Estimator resolves qualified column names ("alias.col") to collected
// column statistics and estimates cardinalities over them.
type Estimator struct {
	cols map[string]*stats.Column
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{cols: make(map[string]*stats.Column)}
}

// AddTable registers one FROM-clause table instance: schema carries the
// block-qualified column names, ts the (unqualified) table statistics.
func (e *Estimator) AddTable(schema *relation.Schema, ts *stats.Table) {
	for _, c := range schema.Cols {
		if cs := ts.Col(unqualify(c.Name)); cs != nil {
			e.cols[c.Name] = cs
		}
	}
}

// Col returns the statistics behind a qualified column name, or nil.
func (e *Estimator) Col(name string) *stats.Column { return e.cols[name] }

// Selectivity estimates the fraction of tuples satisfying p under the
// usual independence assumptions. A nil predicate selects everything.
func (e *Estimator) Selectivity(p expr.Expr) float64 {
	if p == nil {
		return 1
	}
	switch x := p.(type) {
	case expr.Logic:
		l, r := e.Selectivity(x.L), e.Selectivity(x.R)
		if x.Op == expr.OpAnd {
			return l * r
		}
		return clamp01(l + r - l*r)
	case expr.Not:
		return clamp01(1 - e.Selectivity(x.E))
	case expr.IsNull:
		frac := DefaultEq
		if c, ok := x.E.(expr.Column); ok {
			if cs := e.cols[c.Name]; cs != nil {
				frac = cs.NullFrac()
			}
		}
		if x.Negate {
			return clamp01(1 - frac)
		}
		return frac
	case expr.Cmp:
		return e.cmpSelectivity(x)
	default:
		return DefaultSel
	}
}

func (e *Estimator) cmpSelectivity(c expr.Cmp) float64 {
	// Normalise to column-op-something.
	lc, lIsCol := c.L.(expr.Column)
	rc, rIsCol := c.R.(expr.Column)
	switch {
	case lIsCol && rIsCol:
		return e.colColSelectivity(c.Op, lc.Name, rc.Name)
	case lIsCol:
		if lit, ok := c.R.(expr.Lit); ok {
			return e.colLitSelectivity(c.Op, lc.Name, lit.V)
		}
	case rIsCol:
		if lit, ok := c.L.(expr.Lit); ok {
			return e.colLitSelectivity(c.Op.Flip(), rc.Name, lit.V)
		}
	}
	if c.Op == expr.Eq {
		return DefaultEq
	}
	return DefaultRange
}

func (e *Estimator) colColSelectivity(op expr.CmpOp, l, r string) float64 {
	ls, rs := e.cols[l], e.cols[r]
	switch op {
	case expr.Eq:
		ndv := math.Max(ndvOf(ls), ndvOf(rs))
		if ndv <= 0 {
			return DefaultEq
		}
		return clamp01((1 - nullOf(ls)) * (1 - nullOf(rs)) / ndv)
	case expr.Ne:
		return clamp01(1 - e.colColSelectivity(expr.Eq, l, r))
	default:
		return DefaultRange
	}
}

func (e *Estimator) colLitSelectivity(op expr.CmpOp, col string, v value.Value) float64 {
	cs := e.cols[col]
	if cs == nil || v.IsNull() {
		if op == expr.Eq {
			return DefaultEq
		}
		return DefaultRange
	}
	nn := 1 - cs.NullFrac() // comparisons are unknown (false) on NULL
	switch op {
	case expr.Eq:
		return clamp01(nn * cs.FracEq(v))
	case expr.Ne:
		return clamp01(nn * (1 - cs.FracEq(v)))
	case expr.Lt:
		return clamp01(nn * cs.FracLT(v))
	case expr.Le:
		return clamp01(nn * cs.FracLE(v))
	case expr.Gt:
		return clamp01(nn * (1 - cs.FracLE(v)))
	case expr.Ge:
		return clamp01(nn * (1 - cs.FracLT(v)))
	}
	return DefaultRange
}

// JoinRows estimates |L ⋈_on R|. Equality conjuncts between two known
// columns use the standard |L|·|R| / max(ndv) containment estimate;
// everything else falls back to Selectivity. A nil condition is a cross
// product (the virtual Cartesian product of uncorrelated subqueries).
func (e *Estimator) JoinRows(lrows, rrows float64, on expr.Expr) float64 {
	return math.Max(0, lrows*rrows*e.Selectivity(on))
}

// OuterJoinRows estimates |L ⟕_on R|: every left tuple survives, so the
// result is at least |L|.
func (e *Estimator) OuterJoinRows(lrows, rrows float64, on expr.Expr) float64 {
	return math.Max(lrows, e.JoinRows(lrows, rrows, on))
}

// GroupShape estimates the nest structure an equi-correlation produces:
// matchFrac is the fraction of outer tuples whose group is non-empty,
// avgGroup the mean group size among those. A nil condition models the
// uncorrelated case (one shared group: every outer tuple sees all inner
// tuples).
func (e *Estimator) GroupShape(corr expr.Expr, outerRows, innerRows float64) (matchFrac, avgGroup float64) {
	if innerRows <= 0 || outerRows <= 0 {
		return 0, 0
	}
	if corr == nil {
		return 1, innerRows
	}
	matchFrac = 1
	for _, pair := range equiPairs(corr, nil) {
		a, b := e.cols[pair[0]], e.cols[pair[1]]
		na, nb := ndvOf(a), ndvOf(b)
		if na <= 0 || nb <= 0 {
			continue
		}
		// Containment: the side with fewer distinct values is a subset of
		// the other, so min(ndv)/max(ndv) of the values on the wider side
		// have a partner. Tuples whose join column is NULL never match.
		matchFrac *= math.Min(na, nb) / math.Max(1, math.Max(na, nb))
		matchFrac *= (1 - nullOf(a)) * (1 - nullOf(b))
	}
	join := e.JoinRows(outerRows, innerRows, corr)
	matchFrac = clamp01(matchFrac)
	if matchFrac <= 0 {
		return 0, 0
	}
	avgGroup = math.Max(1, join/(outerRows*matchFrac))
	return matchFrac, avgGroup
}

// equiPairs collects [outer, inner] column name pairs from the equality
// conjuncts of a correlation condition.
func equiPairs(ex expr.Expr, dst [][2]string) [][2]string {
	switch x := ex.(type) {
	case expr.Logic:
		if x.Op == expr.OpAnd {
			return equiPairs(x.R, equiPairs(x.L, dst))
		}
	case expr.Cmp:
		if x.Op == expr.Eq {
			l, lok := x.L.(expr.Column)
			r, rok := x.R.(expr.Column)
			if lok && rok {
				return append(dst, [2]string{l.Name, r.Name})
			}
		}
	}
	return dst
}

// CmpColFraction estimates P(left op right) for independent non-NULL
// draws from the two columns, integrating left's cumulative distribution
// over right's equi-depth buckets (trapezoid rule on the bucket bounds).
// It reports ok=false for non-range operators or when either side lacks a
// histogram — callers then fall back to the fixed default selectivities.
func CmpColFraction(left, right *stats.Column, op expr.CmpOp) (float64, bool) {
	switch op {
	case expr.Lt, expr.Le, expr.Gt, expr.Ge:
	default:
		return 0, false
	}
	if left == nil || right == nil || left.Hist == nil || right.Hist == nil {
		return 0, false
	}
	total := float64(right.Hist.Total())
	if total <= 0 {
		return 0, false
	}
	le := 0.0 // P(left ≤ right)
	for i, cnt := range right.Hist.Counts {
		lo, hi := right.Hist.Bounds[i], right.Hist.Bounds[i+1]
		w := float64(cnt) / total
		le += w * (left.FracLE(lo) + left.FracLE(hi)) / 2
	}
	switch op {
	case expr.Lt, expr.Le:
		return clamp01(le), true
	default: // Gt, Ge
		return clamp01(1 - le), true
	}
}

func ndvOf(c *stats.Column) float64 {
	if c == nil {
		return 0
	}
	return c.NDV
}

func nullOf(c *stats.Column) float64 {
	if c == nil {
		return 0
	}
	return c.NullFrac()
}

func clamp01(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func unqualify(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}
