package opt

import (
	"math"
	"testing"

	"nra/internal/expr"
	"nra/internal/relation"
	"nra/internal/sql"
	"nra/internal/stats"
	"nra/internal/value"
)

// build returns an estimator over one table "t" with an integer column
// t.k holding 1..n each repeated reps times, of which nullEvery-th
// values are NULL.
func build(t *testing.T, n, reps int, nulls int) *Estimator {
	t.Helper()
	schema := &relation.Schema{Name: "t", Cols: []relation.Column{{Name: "t.k", Type: relation.TInt}}}
	rel := relation.New(schema)
	for i := 0; i < n; i++ {
		for r := 0; r < reps; r++ {
			rel.Append(relation.Tuple{Atoms: []value.Value{value.Int(int64(i + 1))}})
		}
	}
	for i := 0; i < nulls; i++ {
		rel.Append(relation.Tuple{Atoms: []value.Value{value.Null}})
	}
	e := NewEstimator()
	e.AddTable(schema, stats.Collect(rel))
	return e
}

func TestSelectionSelectivity(t *testing.T) {
	e := build(t, 1000, 1, 0)
	sel := e.Selectivity(expr.Compare(expr.Eq, expr.Col("t.k"), expr.Val(500)))
	if math.Abs(sel-0.001) > 1e-4 {
		t.Errorf("eq selectivity = %g, want ≈0.001", sel)
	}
	sel = e.Selectivity(expr.Compare(expr.Lt, expr.Col("t.k"), expr.Val(251)))
	if math.Abs(sel-0.25) > 0.05 {
		t.Errorf("range selectivity = %g, want ≈0.25", sel)
	}
	// Flipped literal side.
	flip := e.Selectivity(expr.Compare(expr.Gt, expr.Val(251), expr.Col("t.k")))
	if math.Abs(flip-sel) > 1e-9 {
		t.Errorf("lit > col (%g) should equal col < lit (%g)", flip, sel)
	}
	// Conjunction: independence.
	and := e.Selectivity(expr.And(
		expr.Compare(expr.Lt, expr.Col("t.k"), expr.Val(501)),
		expr.Compare(expr.Gt, expr.Col("t.k"), expr.Val(250)),
	))
	if and <= 0 || and >= 0.5 {
		t.Errorf("AND selectivity = %g, want in (0, 0.5)", and)
	}
	// Unknown column falls back to defaults.
	if got := e.Selectivity(expr.Compare(expr.Eq, expr.Col("u.x"), expr.Val(1))); got != DefaultEq {
		t.Errorf("unknown column eq = %g, want %g", got, DefaultEq)
	}
}

func TestNullAwareSelectivity(t *testing.T) {
	e := build(t, 100, 1, 100) // half the rows NULL
	isNull := e.Selectivity(expr.IsNull{E: expr.Col("t.k")})
	if math.Abs(isNull-0.5) > 1e-9 {
		t.Errorf("IS NULL = %g, want 0.5", isNull)
	}
	// Comparisons never match NULL rows: Eq ≈ 0.5 · 1/100.
	eq := e.Selectivity(expr.Compare(expr.Eq, expr.Col("t.k"), expr.Val(50)))
	if math.Abs(eq-0.005) > 1e-3 {
		t.Errorf("eq on half-NULL column = %g, want ≈0.005", eq)
	}
}

func TestJoinRows(t *testing.T) {
	e := build(t, 1000, 10, 0) // 10000 rows, ndv 1000
	on := expr.Compare(expr.Eq, expr.Col("t.k"), expr.Col("t.k"))
	got := e.JoinRows(10000, 10000, on)
	// |L|·|R|/max(ndv) = 1e8/1000 = 1e5.
	if got < 0.5e5 || got > 2e5 {
		t.Errorf("join rows = %g, want ≈1e5", got)
	}
	if outer := e.OuterJoinRows(10, 0, on); outer != 10 {
		t.Errorf("outer join preserves left side: %g, want 10", outer)
	}
	if cross := e.JoinRows(100, 100, nil); cross != 10000 {
		t.Errorf("nil condition = cross product: %g, want 10000", cross)
	}
}

func TestGroupShape(t *testing.T) {
	e := build(t, 1000, 5, 0)
	corr := expr.Compare(expr.Eq, expr.Col("t.k"), expr.Col("t.k"))
	match, avg := e.GroupShape(corr, 5000, 5000)
	if math.Abs(match-1) > 0.1 {
		t.Errorf("matchFrac = %g, want ≈1 (same key domain)", match)
	}
	if avg < 2 || avg > 10 {
		t.Errorf("avgGroup = %g, want ≈5", avg)
	}
	// Uncorrelated: one shared group of all inner tuples.
	match, avg = e.GroupShape(nil, 100, 42)
	if match != 1 || avg != 42 {
		t.Errorf("uncorrelated shape = (%g, %g), want (1, 42)", match, avg)
	}
	if match, _ := e.GroupShape(corr, 100, 0); match != 0 {
		t.Errorf("empty inner: matchFrac = %g, want 0", match)
	}
}

func TestLinkSelectivityPerOperator(t *testing.T) {
	base := LinkInput{MatchFrac: 0.8, AvgGroup: 4, LinkedNDV: 100}
	cases := []struct {
		name string
		in   LinkInput
		lo   float64
		hi   float64
	}{
		{"EXISTS", with(base, func(i *LinkInput) { i.Kind = sql.Exists }), 0.8, 0.8},
		{"NOT EXISTS", with(base, func(i *LinkInput) { i.Kind = sql.NotExists }), 0.2, 0.2},
		{"IN", with(base, func(i *LinkInput) { i.Kind = sql.In }), 0.01, 0.1},
		{"SOME >", with(base, func(i *LinkInput) { i.Kind = sql.CmpSome; i.Cmp = expr.Gt }), 0.4, 0.7},
		{"ALL >", with(base, func(i *LinkInput) { i.Kind = sql.CmpAll; i.Cmp = expr.Gt }), 0.2, 0.3},
		{"NOT IN", with(base, func(i *LinkInput) { i.Kind = sql.NotIn }), 0.9, 1},
		{"scalar =", with(base, func(i *LinkInput) { i.Kind = sql.CmpScalar; i.Cmp = expr.Eq }), 0.005, 0.01},
	}
	for _, tc := range cases {
		f, why := LinkSelectivity(tc.in)
		if f < tc.lo-1e-9 || f > tc.hi+1e-9 {
			t.Errorf("%s: selectivity = %g (%s), want in [%g, %g]", tc.name, f, why, tc.lo, tc.hi)
		}
		if why == "" {
			t.Errorf("%s: empty explanation", tc.name)
		}
	}
}

// TestAllNullInner exercises the paper's central pitfall: with an
// all-NULL inner column, x NOT IN (subquery) is true only for outer
// tuples whose group is empty, and never false-positives.
func TestAllNullInner(t *testing.T) {
	in := LinkInput{Kind: sql.NotIn, MatchFrac: 1, AvgGroup: 3, LinkedNull: 1, LinkedNDV: 1}
	if f, why := LinkSelectivity(in); f != 0 {
		t.Errorf("NOT IN, all groups non-empty, all members NULL: %g (%s), want 0", f, why)
	}
	in.MatchFrac = 0.6
	if f, _ := LinkSelectivity(in); math.Abs(f-0.4) > 1e-9 {
		t.Errorf("NOT IN with 40%% empty groups and all-NULL members: %g, want 0.4", f)
	}
	all := LinkInput{Kind: sql.CmpAll, Cmp: expr.Gt, MatchFrac: 1, AvgGroup: 3, LinkedNull: 1}
	if f, _ := LinkSelectivity(all); f != 0 {
		t.Errorf("> ALL over all-NULL members: %g, want 0", f)
	}
	// NULL outer attribute: SOME/IN can never be true.
	someNull := LinkInput{Kind: sql.In, MatchFrac: 1, AvgGroup: 3, AttrNull: 1, LinkedNDV: 10}
	if f, _ := LinkSelectivity(someNull); f != 0 {
		t.Errorf("IN with always-NULL attribute: %g, want 0", f)
	}
}

func TestCostModel(t *testing.T) {
	if HashJoinCost(100, 1000, 50) <= 1000 {
		t.Error("hash join cost must exceed its probe input")
	}
	if SortCost(1024) != 1024*10 {
		t.Errorf("SortCost(1024) = %g, want 10240", SortCost(1024))
	}
	if NestLinkCost(1000, 10) <= SortCost(1000) {
		t.Error("nestlink cost must exceed its sort")
	}
	if EstBytes(10, 52) != 1000 {
		t.Errorf("EstBytes = %g, want 1000", EstBytes(10, 52))
	}
}

func with(in LinkInput, f func(*LinkInput)) LinkInput {
	f(&in)
	return in
}

// intColumn collects stats over a single int column holding lo..hi once each.
func intColumn(lo, hi int) *stats.Column {
	schema := &relation.Schema{Name: "t", Cols: []relation.Column{{Name: "t.c", Type: relation.TInt}}}
	rel := relation.New(schema)
	for i := lo; i <= hi; i++ {
		rel.Append(relation.Tuple{Atoms: []value.Value{value.Int(int64(i))}})
	}
	return stats.Collect(rel).Col("c")
}

func TestCmpColFraction(t *testing.T) {
	low := intColumn(1, 1000)       // uniform 1..1000
	high := intColumn(2000, 3000)   // strictly above low
	overlap := intColumn(501, 1500) // upper half overlaps low

	if f, ok := CmpColFraction(high, low, expr.Gt); !ok || f < 0.99 {
		t.Errorf("P(high > low) = %g, %v; want ≈1", f, ok)
	}
	if f, ok := CmpColFraction(low, high, expr.Gt); !ok || f > 0.01 {
		t.Errorf("P(low > high) = %g, %v; want ≈0", f, ok)
	}
	// Identical distributions: P(a < b) ≈ 1/2.
	if f, ok := CmpColFraction(low, intColumn(1, 1000), expr.Lt); !ok || math.Abs(f-0.5) > 0.05 {
		t.Errorf("P(a < b), same distribution = %g, %v; want ≈0.5", f, ok)
	}
	// Partial overlap lands strictly between the extremes.
	if f, ok := CmpColFraction(low, overlap, expr.Le); !ok || f < 0.6 || f > 0.95 {
		t.Errorf("P(low <= overlap) = %g, %v; want in (0.6, 0.95)", f, ok)
	}
	// Eq/Ne and missing histograms are not handled here.
	if _, ok := CmpColFraction(low, high, expr.Eq); ok {
		t.Error("Eq should report ok=false")
	}
	if _, ok := CmpColFraction(nil, high, expr.Gt); ok {
		t.Error("missing column should report ok=false")
	}
}

func TestLinkSelectivityPThetaOverride(t *testing.T) {
	in := LinkInput{Kind: sql.CmpAll, Cmp: expr.Gt, MatchFrac: 1, AvgGroup: 4,
		PTheta: 0.95, HavePTheta: true}
	got, _ := LinkSelectivity(in)
	want := math.Pow(0.95, 4)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ALL with pθ override = %g, want %g", got, want)
	}
	// The override must not disturb Eq-based operators (IN uses 1/NDV).
	eq := LinkInput{Kind: sql.In, MatchFrac: 1, AvgGroup: 1, LinkedNDV: 10,
		PTheta: 0.95, HavePTheta: true}
	got, _ = LinkSelectivity(eq)
	if math.Abs(got-0.1) > 1e-9 {
		t.Errorf("IN with irrelevant override = %g, want 0.1", got)
	}
}
