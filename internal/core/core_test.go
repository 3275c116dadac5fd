package core

import (
	"fmt"
	"strings"
	"testing"

	"nra/internal/catalog"
	"nra/internal/naive"
	"nra/internal/relation"
	"nra/internal/sql"
)

// paperCatalog reconstructs the spirit of Figure 1's base relations R, S,
// T (the published scan of the figure is partly illegible, so values are
// chosen to exercise the same phenomena: NULLs in linked and correlated
// attributes, empty subquery sets, and failing ALL groups).
func paperCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	r := relation.MustFromRows("R", []string{"A", "B", "C", "D"},
		[]any{1, 2, 3, 1},
		[]any{5, 6, 7, 2},
		[]any{10, 2, 3, 3},
		[]any{nil, nil, 5, 4},
		[]any{8, 4, 5, 5},
	)
	s := relation.MustFromRows("S", []string{"E", "F", "G", "H", "I"},
		[]any{2, 5, 1, 8, 1},
		[]any{4, 5, 1, 2, 2},
		[]any{6, 5, 2, nil, 3},
		[]any{9, 7, 3, 5, 4},
		[]any{3, 5, 9, 4, 5},
		[]any{nil, 5, 3, 7, 6},
	)
	tt := relation.MustFromRows("T", []string{"J", "K", "L"},
		[]any{7, 3, 1},
		[]any{9, 3, 2},
		[]any{nil, 5, 3},
		[]any{1, 7, 4},
		[]any{3, 5, 5},
	)
	mustCreate(t, cat, "R", r, "D")
	mustCreate(t, cat, "S", s, "I")
	mustCreate(t, cat, "T", tt, "L")
	return cat
}

func mustCreate(t testing.TB, cat *catalog.Catalog, name string, rel *relation.Relation, pk string) {
	t.Helper()
	if _, err := cat.Create(name, rel, pk); err != nil {
		t.Fatal(err)
	}
}

func analyze(t testing.TB, cat *catalog.Catalog, src string) *sql.Query {
	t.Helper()
	sel, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	q, err := sql.Analyze(sel, cat)
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	return q
}

// optionMatrix is every §4.2 configuration the equivalence tests check
// against the reference evaluator.
var optionMatrix = map[string]Options{
	"original":        Original(),
	"optimized":       Optimized(),
	"alwaysPad":       {AlwaysPad: true},
	"fused":           {Fused: true},
	"bottomUp":        {BottomUp: true},
	"bottomUpFused":   {BottomUp: true, Fused: true},
	"nestPushdown":    {NestPushdown: true},
	"positiveRewrite": {PositiveRewrite: true},
	"padFused":        {AlwaysPad: true, Fused: true},
}

// checkAllStrategies asserts that every configuration returns exactly the
// reference evaluator's result.
func checkAllStrategies(t *testing.T, cat *catalog.Catalog, src string) {
	t.Helper()
	q := analyze(t, cat, src)
	want, err := naive.Evaluate(q)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for name, opt := range optionMatrix {
		got, err := Execute(q, opt)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !got.EqualSet(want) {
			t.Errorf("%s: result differs from reference for\n  %s\nreference (%d rows):\n%s%s (%d rows):\n%s",
				name, src, want.Len(), want, name, got.Len(), got)
		}
	}
}

const queryQ = `
select R.B, R.C, R.D
from R
where R.A > 1 and R.B not in
  (select S.E from S
   where S.F = 5 and R.D = S.G and S.H > all
     (select T.J from T where T.K = R.C and T.L <> S.I))`

func TestQueryQAllStrategies(t *testing.T) {
	checkAllStrategies(t, paperCatalog(t), queryQ)
}

func TestFixedQueries(t *testing.T) {
	cat := paperCatalog(t)
	queries := map[string]string{
		"flat":                    "select A, B from R where A > 1",
		"flat multi-table":        "select R.A, S.E from R, S where R.D = S.G and S.F = 5",
		"exists correlated":       "select B from R where exists (select * from S where S.G = R.D)",
		"not exists correlated":   "select B from R where not exists (select * from S where S.G = R.D)",
		"in correlated":           "select B from R where R.B in (select S.E from S where S.G = R.D)",
		"not in correlated":       "select B from R where R.B not in (select S.E from S where S.G = R.D)",
		"all correlated":          "select B from R where R.A > all (select S.E from S where S.G = R.D)",
		"some correlated":         "select B from R where R.A < some (select S.E from S where S.G = R.D)",
		"all uncorrelated":        "select B from R where R.A >= all (select S.E from S where S.F = 5)",
		"in uncorrelated":         "select B from R where R.B in (select S.E from S)",
		"exists uncorrelated":     "select B from R where exists (select * from S where S.F = 9)",
		"not exists uncorrelated": "select B from R where not exists (select * from S where S.F = 9)",
		"constant linking attr":   "select B from R where 5 < all (select S.E from S where S.G = R.D)",
		"two level mixed": `select B from R where R.B in
			(select S.E from S where S.G = R.D and not exists
				(select * from T where T.K = R.C and T.L <> S.I))`,
		"two level negative": `select B from R where R.B not in
			(select S.E from S where S.G = R.D and S.H > all
				(select T.J from T where T.K = S.G))`,
		"two level positive": `select B from R where R.B in
			(select S.E from S where S.G = R.D and exists
				(select * from T where T.K = S.G))`,
		"tree query": `select B from R where
			exists (select * from S where S.G = R.D)
			and not exists (select * from T where T.K = R.C)`,
		"tree query quantified": `select B from R where
			R.B <= any (select S.E from S where S.G = R.D)
			and R.A > all (select T.J from T where T.K = R.C)`,
		"non equi correlation":  "select B from R where R.A > all (select S.E from S where S.G <> R.D)",
		"nulls in linking attr": "select B from R where R.B > all (select S.E from S where S.G = R.D)",
		"distinct":              "select distinct B from R where exists (select * from S where S.G = R.D)",
		"order by":              "select B, A from R where A > 1 order by B desc, A",
		"three level linear": `select B from R where R.B not in
			(select S.E from S where S.G = R.D and S.H >= some
				(select T.J from T where T.K = S.G and T.L < 5))`,
		"in list aliases": "select r.B from R r where r.B in (select s.E from S s where s.G = r.D)",
	}
	for name, src := range queries {
		src := src
		t.Run(name, func(t *testing.T) { checkAllStrategies(t, cat, src) })
	}
}

func TestUnsupportedShapes(t *testing.T) {
	cat := paperCatalog(t)
	// Subquery under OR: planners must refuse, reference must work.
	q := analyze(t, cat, "select B from R where A = 1 or exists (select * from S where S.G = R.D)")
	if err := Supported(q); err == nil {
		t.Fatal("OR-embedded subquery should be unsupported by the planner")
	}
	if _, err := naive.Evaluate(q); err != nil {
		t.Fatalf("reference evaluator should handle it: %v", err)
	}
	// Arithmetic linking attribute.
	q2 := analyze(t, cat, "select B from R where R.B + 1 in (select S.E from S)")
	if err := Supported(q2); err == nil {
		t.Fatal("non-column linking attribute should be unsupported")
	}
}

func TestChainDetection(t *testing.T) {
	cat := paperCatalog(t)
	p := func(src string) *planner {
		pl, err := newPlanner(analyze(t, cat, src), Optimized())
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}

	linear := p(`select B from R where R.B not in
		(select S.E from S where S.G = R.D and S.H > all
			(select T.J from T where T.K = S.G))`)
	if _, ok := linear.fullyCorrelatedLinearChain(); !ok {
		t.Error("linear correlated query not detected as fused chain")
	}
	if chain, ok := linear.linearCorrelatedChain(); !ok || len(chain) != 3 {
		t.Error("linear correlation (§4.2.3) not detected")
	}

	// Query Q is linear in shape but T is correlated to R (two levels up),
	// so §4.2.3 must NOT apply while the fused chain still does.
	qq := p(queryQ)
	if _, ok := qq.fullyCorrelatedLinearChain(); !ok {
		t.Error("Query Q should allow the fused chain")
	}
	if _, ok := qq.linearCorrelatedChain(); ok {
		t.Error("Query Q is not linearly correlated (T references R)")
	}

	tree := p(`select B from R where
		exists (select * from S where S.G = R.D)
		and exists (select * from T where T.K = R.C)`)
	if _, ok := tree.chainBlocks(); ok {
		t.Error("tree query must not be treated as a chain")
	}
}

func TestStrictnessRule(t *testing.T) {
	cat := paperCatalog(t)
	// Mixed: inner edge under a negative NOT IN must pad.
	pl, err := newPlanner(analyze(t, cat, queryQ), Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := pl.q.Root
	s := root.Links[0].Child
	if !pl.strictOK(root, root) {
		t.Error("root level is always strict")
	}
	if pl.strictOK(s, root) {
		t.Error("level under NOT IN must use the pseudo-selection")
	}

	// All-positive pending: strict is allowed below.
	pl2, err := newPlanner(analyze(t, cat, `select B from R where R.B in
		(select S.E from S where S.G = R.D and exists
			(select * from T where T.K = S.G))`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := pl2.q.Root.Links[0].Child
	if !pl2.strictOK(s2, pl2.q.Root) {
		t.Error("all-positive pending links allow strict selection")
	}
}

func TestExplainProducesTree(t *testing.T) {
	cat := paperCatalog(t)
	q := analyze(t, cat, queryQ)
	out, err := Explain(q, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T1", "NOT IN", "ALL", "R.D = S.G"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestMultiTableSubqueryBlocks(t *testing.T) {
	cat := paperCatalog(t)
	queries := map[string]string{
		"exists over a join": `select B from R where exists
			(select * from S, T where T.K = S.G and S.G = R.D)`,
		"in over a join": `select B from R where R.B in
			(select S.E from S, T where T.K = S.G and S.G = R.D and T.J > 2)`,
		"all over a join": `select B from R where R.A > all
			(select S.E from S, T where T.K = S.G and S.G = R.D)`,
	}
	for name, src := range queries {
		src := src
		t.Run(name, func(t *testing.T) {
			q := analyze(t, cat, src)
			want, err := naive.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			for cfg, opt := range optionMatrix {
				got, err := Execute(q, opt)
				if err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
				if !got.EqualSet(want) {
					t.Fatalf("%s: differs from reference for %s\nref:\n%s\ngot:\n%s", cfg, src, want, got)
				}
			}
		})
	}
}

// sameSequence checks tuple-for-tuple identity, order included — the
// determinism guarantee is stronger than set equality.
func sameSequence(got, want *relation.Relation) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d tuples, want %d", got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if got.Tuples[i].Key() != want.Tuples[i].Key() {
			return fmt.Errorf("tuple %d: got %v, want %v", i, got.Tuples[i], want.Tuples[i])
		}
	}
	return nil
}
