package exec

import (
	"testing"

	"nra/internal/obsv"
	"nra/internal/relation"
)

// TestDisabledTracingZeroAlloc pins the pay-for-use guarantee: with no
// tracer installed, the per-tuple hot path — scan iteration plus the
// span bookkeeping calls every operator makes — performs zero
// allocations. All span methods are nil-receiver no-ops.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	rel := relation.MustFromRows("r", []string{"a", "b"},
		[]any{1, 2}, []any{3, 4}, []any{5, 6}, []any{7, 8})
	ec := NewExecContext(nil, Limits{})
	defer ec.Close()
	if ec.Tracing() {
		t.Fatal("untraced context reports Tracing() = true")
	}

	s := NewScan(rel)
	if err := s.Open(ec); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		s.pos = 0
		for {
			_, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		// The span calls every operator makes: all no-ops on the nil
		// span of an untraced context.
		sp := ec.StartSpan("x", obsv.KindScan)
		sp.AddRowsIn(1)
		sp.AddRowsOut(1)
		sp.AddBytes(64)
		sp.NoteSpill(0)
		sp.SetKind(obsv.KindExtSort)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates: %.1f allocs/run, want 0", allocs)
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

// TestTracedScanCounts verifies a traced scan records its input and
// consumed cardinalities on its span.
func TestTracedScanCounts(t *testing.T) {
	rel := relation.MustFromRows("r", []string{"a"}, []any{1}, []any{2}, []any{3})
	tr := obsv.NewTracer()
	ec := NewExecContext(nil, Limits{Tracer: tr})
	defer ec.Close()
	out, err := Drain(ec, NewScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("drained %d tuples, want 3", out.Len())
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
