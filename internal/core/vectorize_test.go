package core

import (
	"strings"
	"testing"
)

// TestVectorizedMatchesSerial demands byte-identical output — same
// rows, same order — between the row engine and the batch engine on
// every linking-operator shape: the batch operators are a pure
// physical rewrite, so the serial row engine is their parity oracle.
func TestVectorizedMatchesSerial(t *testing.T) {
	cat := paperCatalog(t)
	queries := map[string]string{
		"exists": `select R.A, R.D from R where exists
			(select * from S where S.G = R.D)`,
		"not-exists": `select R.A, R.D from R where not exists
			(select * from S where S.G = R.D and S.H > 4)`,
		"in": `select R.A, R.D from R where R.B in
			(select S.E from S where S.G = R.D)`,
		"not-in": `select R.A, R.D from R where R.B not in
			(select S.E from S where S.G = R.D)`,
		"lt-some": `select R.A, R.D from R where R.A < some
			(select S.H from S where S.G = R.D)`,
		"gt-all": `select R.A, R.D from R where R.A > all
			(select T.J from T where T.K = R.C)`,
		"chain": `select R.A, R.D from R where R.A < some
			(select S.E from S where S.G = R.D and not exists
				(select * from T where T.K = S.I))`,
		"query-q": queryQ,
		"uncorrelated-not-in": `select R.A, R.D from R where R.B not in
			(select S.E from S where S.F = 5)`,
		"scalar-agg": `select R.A, R.D from R where R.A >
			(select max(S.E) from S where S.G = R.D)`,
	}
	for name, src := range queries {
		q := analyze(t, cat, src)
		want, err := Execute(q, Optimized())
		if err != nil {
			t.Fatalf("%s: row engine: %v", name, err)
		}
		vopt := Optimized()
		vopt.Vectorized = true
		got, err := Execute(q, vopt)
		if err != nil {
			t.Fatalf("%s: vectorized: %v", name, err)
		}
		if err := sameSequence(got, want); err != nil {
			t.Errorf("%s: vectorized output differs from row engine: %v", name, err)
		}
	}
}

// TestExplainVectorized checks the plan annotations: the header line,
// the per-operator [batch] labels, and the gate's "disabled" verdict
// when vectorization is combined with an incompatible physical knob.
func TestExplainVectorized(t *testing.T) {
	cat := paperCatalog(t)
	q := analyze(t, cat, `select R.A, R.D from R where R.B in
		(select S.E from S where S.G = R.D)`)

	vopt := Optimized()
	vopt.Vectorized = true
	plan, err := Explain(q, vopt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "vectorized: batch-at-a-time kernels") {
		t.Errorf("plan lacks the vectorized header:\n%s", plan)
	}
	if !strings.Contains(plan, "[batch]") {
		t.Errorf("plan lacks a [batch] operator annotation:\n%s", plan)
	}

	budget := vopt
	budget.MemoryBudget = 64 << 10
	plan, err = Explain(q, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "vectorized: requested but disabled (memory budget set") {
		t.Errorf("budgeted plan does not report the closed gate:\n%s", plan)
	}
}
