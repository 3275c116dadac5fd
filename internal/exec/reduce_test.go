package exec

import (
	"math/rand"
	"strings"
	"testing"

	"nra/internal/algebra"
	"nra/internal/expr"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/value"
)

func TestScanFilterProjectPipeline(t *testing.T) {
	rel := relation.MustFromRows("t", []string{"t.a", "t.b"},
		[]any{1, 10}, []any{2, nil}, []any{3, 30}, []any{4, 5})
	pred := expr.Compare(expr.Gt, expr.Col("t.b"), expr.Val(7))
	out, err := Reduce(Background(), rel, pred, []string{"t.a"})
	if err != nil {
		t.Fatal(err)
	}
	selected, err := algebra.Select(rel, pred)
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.Project(selected, "t.a")
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSeq(t, "reduce", out, want)

	// nil cols keeps every column; a nil predicate keeps every tuple.
	all, err := Reduce(Background(), rel, pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSeq(t, "all columns", all, selected)
	if all.Schema != rel.Schema {
		t.Error("nil cols must keep the input schema")
	}
	same, err := Reduce(Background(), rel, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSeq(t, "no predicate", same, rel)
}

func TestIteratorErrors(t *testing.T) {
	rel := relation.MustFromRows("t", []string{"t.a"}, []any{1})
	if _, err := Reduce(Background(), rel, expr.Col("nope"), nil); err == nil || !strings.HasPrefix(err.Error(), "filter: ") {
		t.Fatalf("unknown filter column: err = %v, want a filter: error", err)
	}
	if _, err := Reduce(Background(), rel, nil, []string{"nope"}); err == nil || !strings.HasPrefix(err.Error(), "project: no column") {
		t.Fatalf("unknown projection column: err = %v, want a project: error", err)
	}
	// A runtime type error surfaces from the pass itself.
	rel2 := relation.MustFromRows("t", []string{"t.a", "t.s"}, []any{1, "x"})
	if _, err := Reduce(Background(), rel2, expr.Compare(expr.Eq, expr.Col("t.a"), expr.Col("t.s")), nil); err == nil {
		t.Fatal("type mismatch must error")
	}
}

// TestVecReduceMatchesReduce checks the batch reduction against the row
// one tuple for tuple — with and without a predicate, and with zone-map
// pruning of groups the predicate cannot match — and that its traced
// scan span counts windows as batches and only unpruned rows as read.
func TestVecReduceMatchesReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, groupRows = 3000, 128
	rel := randomRel("t", []string{"t.a", "t.b"}, n, rng, 0.1, 10)
	// Rows 1024–2047 never pass t.a > 5, so their groups are prunable.
	for i := 1024; i < 2048; i++ {
		rel.Tuples[i].Atoms[0] = value.Int(1)
	}
	pred := expr.Compare(expr.Gt, expr.Col("t.a"), expr.Val(5))
	skip := make([]bool, (n+groupRows-1)/groupRows)
	for g := 1024 / groupRows; g < 2048/groupRows; g++ {
		skip[g] = true
	}
	prune := &SegPrune{GroupRows: groupRows, Skip: skip}
	cases := []struct {
		name          string
		pred          expr.Expr
		prune         *SegPrune
		read, batches int64
	}{
		{"no predicate", nil, nil, n, 3},
		{"predicate", pred, nil, n, 3},
		{"pruned", pred, prune, n - 1024, int64(len(skip) - 1024/groupRows)},
	}
	for _, tc := range cases {
		want, err := Reduce(Background(), rel, tc.pred, []string{"t.b", "t.a"})
		if err != nil {
			t.Fatal(err)
		}
		tr := obsv.NewTracer()
		ec := NewExecContext(nil, Limits{Tracer: tr})
		got, ob, reason, err := VecReduce(ec, rel, tc.pred, []string{"t.b", "t.a"}, nil, tc.prune)
		ec.Close()
		if err != nil || reason != "" {
			t.Fatalf("%s: reason %q, err %v", tc.name, reason, err)
		}
		mustEqualSeq(t, tc.name, got, want)
		if ob.Rows() != want.Len() {
			t.Errorf("%s: output batch has %d rows, want %d", tc.name, ob.Rows(), want.Len())
		}
		scan := tr.Finish().Find(obsv.KindScan)
		if scan == nil {
			t.Fatalf("%s: no scan span", tc.name)
		}
		if scan.RowsIn != n || scan.RowsOut != tc.read || scan.Batches != tc.batches {
			t.Errorf("%s: scan span %d in / %d out / %d batches, want %d / %d / %d",
				tc.name, scan.RowsIn, scan.RowsOut, scan.Batches, n, tc.read, tc.batches)
		}
	}
}
