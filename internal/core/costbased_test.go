package core

import (
	"strings"
	"testing"

	"nra/internal/naive"
	"nra/internal/tpch"
	"nra/internal/value"
)

// parityQueries is the query set the plan-parity tests run: every linking
// operator, both correlation styles, and the paper's nested Query Q.
var parityQueries = []string{
	queryQ,
	"select A, B from R where A > 1",
	"select R.A, S.E from R, S where R.D = S.G and S.F = 5",
	"select B from R where exists (select * from S where S.G = R.D)",
	"select B from R where not exists (select * from S where S.G = R.D)",
	"select B from R where R.B in (select S.E from S where S.G = R.D)",
	"select B from R where R.B not in (select S.E from S where S.G = R.D)",
	"select B from R where R.A > all (select S.E from S where S.G = R.D)",
	"select B from R where R.A < some (select S.E from S where S.G = R.D)",
	"select B from R where R.B in (select S.E from S)",
	"select B from R where R.A > (select max(T.J) from T where T.K = R.C)",
}

func heuristicOptions() Options {
	opt := Optimized()
	opt.UseStats = false
	opt.CostBased = false
	return opt
}

// TestPlanParityNoStats is the graceful-degradation guarantee: with
// UseStats/CostBased on but no statistics collected, the planner must
// reproduce the heuristic planner's behaviour exactly — the same operator
// trace and the same tuples in the same order.
func TestPlanParityNoStats(t *testing.T) {
	for _, src := range parityQueries {
		cat := paperCatalog(t) // fresh catalog: no table has statistics
		q := analyze(t, cat, src)

		var heurTrace, costTrace strings.Builder
		heurOpt := heuristicOptions()
		heurOpt.Trace = &heurTrace
		costOpt := Optimized() // UseStats + CostBased on
		costOpt.Trace = &costTrace

		heur, err := Execute(q, heurOpt)
		if err != nil {
			t.Fatalf("heuristic %q: %v", src, err)
		}
		cost, err := Execute(q, costOpt)
		if err != nil {
			t.Fatalf("cost-based %q: %v", src, err)
		}
		if heurTrace.String() != costTrace.String() {
			t.Errorf("traces diverge without stats for %q:\nheuristic:\n%s\ncost-based:\n%s",
				src, heurTrace.String(), costTrace.String())
		}
		if heur.Len() != cost.Len() {
			t.Fatalf("%q: %d vs %d tuples", src, heur.Len(), cost.Len())
		}
		for i := range heur.Tuples {
			if heur.Tuples[i].Key() != cost.Tuples[i].Key() {
				t.Fatalf("%q: tuple %d differs", src, i)
			}
		}
	}
}

// TestExplainParityNoStats: without statistics the only EXPLAIN difference
// may be the trailing "statistics: absent" note.
func TestExplainParityNoStats(t *testing.T) {
	cat := paperCatalog(t)
	q := analyze(t, cat, queryQ)
	heur, err := Explain(q, heuristicOptions())
	if err != nil {
		t.Fatal(err)
	}
	cost, err := Explain(q, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(cost, "\n") {
		if strings.HasPrefix(line, "statistics:") {
			continue
		}
		kept = append(kept, line)
	}
	if strings.Join(kept, "\n") != heur {
		t.Errorf("EXPLAIN diverges without stats:\nheuristic:\n%s\ncost-based:\n%s", heur, cost)
	}
}

// TestCostBasedCorrectness: with fresh statistics the cost-based planner
// may pick different physical plans (edge order, rewrite gates, spills) —
// but every query must still return exactly the reference result.
func TestCostBasedCorrectness(t *testing.T) {
	for _, src := range parityQueries {
		cat := paperCatalog(t)
		cat.AnalyzeAll()
		q := analyze(t, cat, src)
		want, err := naive.Evaluate(q)
		if err != nil {
			t.Fatalf("reference %q: %v", src, err)
		}
		for name, opt := range map[string]Options{
			"costbased": Optimized(),
			"costbased-budget": func() Options {
				o := Optimized()
				o.MemoryBudget = 1 << 10 // force planned + reactive spills
				return o
			}(),
		} {
			got, err := Execute(q, opt)
			if err != nil {
				t.Fatalf("%s %q: %v", name, src, err)
			}
			if !got.EqualSet(want) {
				t.Errorf("%s: wrong result for %q:\nwant (%d rows):\n%s\ngot (%d rows):\n%s",
					name, src, want.Len(), want, got.Len(), got)
			}
		}
	}
}

// TestStaleStatsFallBack: DML invalidates statistics, and the planner must
// then degrade to heuristic behaviour (estimator absent) rather than plan
// from stale numbers.
func TestStaleStatsFallBack(t *testing.T) {
	cat := paperCatalog(t)
	cat.AnalyzeAll()
	q := analyze(t, cat, queryQ)
	p, err := newPlanner(q, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if p.est == nil {
		t.Fatal("estimator absent despite fresh stats on all tables")
	}

	if _, err := cat.Delete("S", []value.Value{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	q2 := analyze(t, cat, queryQ)
	p2, err := newPlanner(q2, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if p2.est != nil {
		t.Fatal("estimator still active though S's statistics are stale")
	}
	if !strings.Contains(p2.statsNote, "absent or stale") {
		t.Fatalf("statsNote = %q", p2.statsNote)
	}
}

// TestExplainAnalyzeOutput: EXPLAIN ANALYZE must print the per-operator
// estimated vs actual row counts and the resource accounting.
func TestExplainAnalyzeOutput(t *testing.T) {
	cat := paperCatalog(t)
	cat.AnalyzeAll()
	q := analyze(t, cat, "select B from R where R.B in (select S.E from S where S.G = R.D)")
	out, err := ExplainAnalyze(q, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"analyze:", "est rows", "act rows", "q-error",
		"reduce T1 (R)", "peak tracked memory:",
		"statistics: fresh on all 2 tables",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
}

// tpchQErrorQueries are checked at TPC-H scale 0.01: the estimator's
// q-error (max(est,act)/min(est,act), both clamped to one row) must stay
// within a fixed factor on every operator that carries an estimate.
var tpchQErrorQueries = []string{
	`select o_orderkey from orders
	 where o_totalprice > all (select l_extendedprice from lineitem
	       where l_orderkey = o_orderkey and l_shipdate < l_commitdate)`,
	`select c_name from customer
	 where exists (select * from orders where o_custkey = c_custkey)`,
	`select c_name from customer
	 where c_custkey not in (select o_custkey from orders where o_totalprice > 50000)`,
	`select s_name from supplier
	 where s_suppkey in (select ps_suppkey from partsupp where ps_availqty > 100)`,
}

func TestTPCHQError(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H generation in -short mode")
	}
	cat, err := tpch.Generate(tpch.Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	cat.AnalyzeAll()
	const maxQ = 64.0
	for _, src := range tpchQErrorQueries {
		q := analyze(t, cat, src)
		_, ops, _, err := ExecuteAnalyzed(q, Optimized())
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		estimated := 0
		for _, o := range ops {
			if o.Est < 0 {
				continue
			}
			estimated++
			if qe := qError(o.Est, o.Act); qe > maxQ {
				t.Errorf("%q: operator %q q-error %.1f (est %.0f, act %d) exceeds %.0f",
					src, o.Op, qe, o.Est, o.Act, maxQ)
			}
		}
		if estimated == 0 {
			t.Errorf("%q: no operator carried an estimate", src)
		}
	}
}

// TestBuildSideSwap: with statistics active the block-reduction hash
// join builds on the smaller input; the result must not change.
func TestBuildSideSwap(t *testing.T) {
	cat := paperCatalog(t)
	cat.AnalyzeAll()
	q := analyze(t, cat, "select R.A, S.E from R, S where R.D = S.G")
	want, err := naive.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}

	var tr strings.Builder
	opt := Optimized()
	opt.Trace = &tr
	got, err := Execute(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	// R (5 rows) accumulates first and is smaller than S (6 rows), so it
	// moves to the build side.
	if !strings.Contains(tr.String(), "build side swapped") {
		t.Errorf("expected a build-side swap in the trace:\n%s", tr.String())
	}
	if !got.EqualSet(want) {
		t.Errorf("swapped join changed the result:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Without statistics, no swap.
	tr.Reset()
	heur := heuristicOptions()
	heur.Trace = &tr
	if _, err := Execute(q, heur); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tr.String(), "build side swapped") {
		t.Error("heuristic planner must not swap build sides")
	}
}
