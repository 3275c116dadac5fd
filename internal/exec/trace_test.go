package exec

import (
	"testing"

	"nra/internal/expr"
	"nra/internal/obsv"
	"nra/internal/relation"
)

// TestDisabledTracingZeroAlloc pins the pay-for-use guarantee: with no
// tracer installed, the span bookkeeping calls every operator makes
// perform zero allocations (all span methods are nil-receiver no-ops),
// and an untraced Reduce allocates nothing per scanned tuple — its
// allocation count does not grow with the input.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	ec := NewExecContext(nil, Limits{})
	defer ec.Close()
	if ec.Tracing() {
		t.Fatal("untraced context reports Tracing() = true")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		sp := ec.StartSpan("x", obsv.KindScan)
		sp.AddRowsIn(1)
		sp.AddRowsOut(1)
		sp.AddBytes(64)
		sp.AddBatches(1)
		sp.NoteSpill(0)
		sp.SetKind(obsv.KindExtSort)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates: %.1f allocs/run, want 0", allocs)
	}

	// A predicate no tuple passes isolates the scan loop from output
	// growth: whatever Reduce allocates is per call, not per tuple.
	reduceAllocs := func(n int) float64 {
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{i, i}
		}
		rel := relation.MustFromRows("r", []string{"a", "b"}, rows...)
		pred := expr.Compare(expr.Lt, expr.Col("a"), expr.Val(-1))
		return testing.AllocsPerRun(100, func() {
			out, err := Reduce(ec, rel, pred, []string{"b"})
			if err != nil || out.Len() != 0 {
				t.Fatalf("reduce: %d tuples, err %v", out.Len(), err)
			}
		})
	}
	if small, large := reduceAllocs(4), reduceAllocs(4096); large > small {
		t.Errorf("untraced Reduce allocations grow with input: %.1f at 4 rows, %.1f at 4096", small, large)
	}
}

// TestTracerDoesNotGovern pins the design invariant that installing a
// tracer never flips a query onto the governed physical paths — tracing
// observes execution, it must not change it.
func TestTracerDoesNotGovern(t *testing.T) {
	ec := NewExecContext(nil, Limits{Tracer: obsv.NewTracer()})
	defer ec.Close()
	if ec.Governed() {
		t.Error("a tracer alone must not make the context governed")
	}
	if !ec.Tracing() {
		t.Error("Tracing() = false with a tracer installed")
	}
}

// TestTracedScanCounts verifies a traced Reduce records a scan span with
// its input and scanned cardinalities (rows out counts tuples read, not
// tuples passing the filter).
func TestTracedScanCounts(t *testing.T) {
	rel := relation.MustFromRows("r", []string{"a"}, []any{1}, []any{2}, []any{3})
	tr := obsv.NewTracer()
	ec := NewExecContext(nil, Limits{Tracer: tr})
	defer ec.Close()
	out, err := Reduce(ec, rel, expr.Compare(expr.Gt, expr.Col("a"), expr.Val(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("reduced to %d tuples, want 2", out.Len())
	}
	rec := tr.Finish()
	scan := rec.Find(obsv.KindScan)
	if scan == nil {
		t.Fatalf("no scan span in %s", obsv.Waterfall(rec))
	}
	if scan.RowsIn != 3 || scan.RowsOut != 3 {
		t.Errorf("scan span rows = %d in / %d out, want 3/3", scan.RowsIn, scan.RowsOut)
	}
}
