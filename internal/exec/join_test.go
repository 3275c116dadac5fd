package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"nra/internal/algebra"
	"nra/internal/expr"
	"nra/internal/relation"
)

// randomRel builds a deterministic pseudo-random relation with duplicate
// and NULL key values — the shapes that stress partition boundaries.
func randomRel(name string, cols []string, n int, rng *rand.Rand, nullFrac float64, domain int) *relation.Relation {
	rows := make([][]any, n)
	for i := range rows {
		row := make([]any, len(cols))
		for j := range row {
			if rng.Float64() < nullFrac {
				row[j] = nil
			} else {
				row[j] = rng.Intn(domain)
			}
		}
		rows[i] = row
	}
	return relation.MustFromRows(name, cols, rows...)
}

// mustEqualSeq fails unless two relations hold identical tuple sequences
// (order-sensitive — the determinism guarantee, stronger than EqualSet).
func mustEqualSeq(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if got.Tuples[i].Key() != want.Tuples[i].Key() {
			t.Fatalf("%s: tuple %d differs:\n got  %v\n want %v", label, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

func TestSpillSortByMatchesSortBy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 10, 257, 2048, 5000} {
		rel := randomRel("r", []string{"a", "b", "c"}, n, rng, 0.15, 13)
		idx := []int{0, 1}
		want := &relation.Relation{Schema: rel.Schema, Tuples: append([]relation.Tuple(nil), rel.Tuples...)}
		want.SortBy("a", "b")
		for name, ec := range joinContexts(t) {
			got, _, err := spillSortBy(ec, "sort", rel.Tuples, idx, rel.Schema)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			mustEqualSeq(t, fmt.Sprintf("n=%d %s", n, name),
				&relation.Relation{Schema: rel.Schema, Tuples: got}, want)
		}
	}
}

// joinContexts returns the execution contexts the join and sort must be
// indistinguishable under: ungoverned, governed in memory (a cancellable
// context), and governed under a 4 KB budget that forces the grace join
// and the external sort.
func joinContexts(t *testing.T) map[string]*ExecContext {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	governed := NewExecContext(ctx, Limits{TempDir: t.TempDir()})
	spilling := NewExecContext(nil, Limits{MemoryBudget: 4 << 10, TempDir: t.TempDir()})
	t.Cleanup(func() {
		cancel()
		governed.Close()
		spilling.Close()
	})
	return map[string]*ExecContext{"ungoverned": Background(), "governed": governed, "4KB": spilling}
}

func TestJoinMatchesAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := randomRel("l", []string{"a", "x"}, 700, rng, 0.1, 40)
	r := randomRel("r", []string{"b", "y"}, 900, rng, 0.1, 40)

	equi := expr.Compare(expr.Eq, expr.Col("a"), expr.Col("b"))
	residual := expr.And(equi, expr.Compare(expr.Lt, expr.Col("x"), expr.Col("y")))
	theta := expr.Compare(expr.Lt, expr.Col("a"), expr.Col("b")) // no equi conjunct: loop fallback

	cases := []struct {
		name  string
		on    expr.Expr
		outer bool
	}{
		{"inner-equi", equi, false},
		{"outer-equi", equi, true},
		{"inner-residual", residual, false},
		{"outer-residual", residual, true},
		{"inner-theta", theta, false},
		{"outer-theta", theta, true},
		{"cross", nil, false},
	}
	ecs := joinContexts(t)
	for _, tc := range cases {
		var want *relation.Relation
		var err error
		if tc.outer {
			want, err = algebra.LeftOuterJoin(l, r, tc.on)
		} else {
			want, err = algebra.Join(l, r, tc.on)
		}
		if err != nil {
			t.Fatal(err)
		}
		for name, ec := range ecs {
			got, err := Join(ec, l, r, tc.on, tc.outer)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, name, err)
			}
			mustEqualSeq(t, fmt.Sprintf("%s %s", tc.name, name), got, want)
		}
	}
	if ecs["4KB"].Stats().Spills == 0 {
		t.Error("the 4 KB budget never forced a grace join")
	}
}

// TestJoinNestedGroups covers the §4.2.4 pushdown shape: the build side
// carries a nested attribute that must survive the build/probe, the
// grace join's spill files, and NULL padding.
func TestJoinNestedGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	l := randomRel("l", []string{"a", "x"}, 300, rng, 0.1, 25)
	flat := randomRel("f", []string{"b", "v"}, 400, rng, 0.1, 25)
	nested, err := algebra.Nest(flat, []string{"b"}, []string{"v"}, "grp")
	if err != nil {
		t.Fatal(err)
	}
	on := expr.Compare(expr.Eq, expr.Col("a"), expr.Col("b"))
	want, err := algebra.LeftOuterJoin(l, nested, on)
	if err != nil {
		t.Fatal(err)
	}
	for name, ec := range joinContexts(t) {
		got, err := Join(ec, l, nested, on, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mustEqualSeq(t, "nested "+name, got, want)
	}
}
