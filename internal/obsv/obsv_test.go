package obsv

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", KindScan)
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	if tr.Current() != nil {
		t.Fatal("nil tracer Current != nil")
	}
	if tr.Finish() != nil || tr.Snapshot() != nil {
		t.Fatal("nil tracer Finish/Snapshot != nil")
	}
	// Every Span method must be a no-op on nil.
	sp.End()
	sp.SetKind(KindSort)
	sp.SetEst(1)
	sp.AddRowsIn(1)
	sp.AddRowsOut(1)
	sp.AddBytes(1)
	sp.NoteSpill(1)
}

func TestSpanStack(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("a", KindJoin)
	b := tr.Start("b", KindScan)
	if tr.Current() != b {
		t.Fatal("current != innermost open span")
	}
	b.End()
	if tr.Current() != a {
		t.Fatal("ending the innermost span must pop to its parent")
	}
	c := tr.Start("c", KindScan)
	c.AddRowsOut(7)
	c.End()
	a.End()
	rec := tr.Finish()
	if rec.Kind != KindQuery || len(rec.Children) != 1 {
		t.Fatalf("root = %q with %d children, want query/1", rec.Kind, len(rec.Children))
	}
	ra := rec.Children[0]
	if ra.Op != "a" || len(ra.Children) != 2 {
		t.Fatalf("span a = %q with %d children, want a/2", ra.Op, len(ra.Children))
	}
	if ra.Children[0].Op != "b" || ra.Children[1].Op != "c" {
		t.Fatalf("children = %q,%q, want b,c", ra.Children[0].Op, ra.Children[1].Op)
	}
	if ra.Children[1].RowsOut != 7 {
		t.Fatalf("c rows out = %d, want 7", ra.Children[1].RowsOut)
	}
}

func TestOutOfOrderEnd(t *testing.T) {
	// An error path may end an ancestor while a descendant is still open:
	// the descendant must be closed too, and the stack must stay sane.
	tr := NewTracer()
	a := tr.Start("a", KindJoin)
	tr.Start("b", KindScan) // never explicitly ended
	a.End()
	if cur := tr.Current(); cur == nil || cur.op != "query" {
		t.Fatalf("current after ancestor End = %v, want root", cur)
	}
	rec := tr.Finish()
	if got := rec.Children[0].Children[0]; got.Op != "b" || got.Elapsed < 0 {
		t.Fatalf("descendant span not closed properly: %+v", got)
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("a", KindScan)
	sp.AddRowsOut(3)
	r1 := tr.Finish()
	time.Sleep(time.Millisecond)
	r2 := tr.Finish()
	if r1.Children[0].Elapsed != r2.Children[0].Elapsed {
		t.Fatalf("Finish not idempotent: %v vs %v", r1.Children[0].Elapsed, r2.Children[0].Elapsed)
	}
	if r2.Children[0].RowsOut != 3 {
		t.Fatalf("rows lost on re-snapshot: %d", r2.Children[0].RowsOut)
	}
}

func TestWaterfall(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("scan r", KindScan)
	sp.AddRowsIn(100)
	sp.AddRowsOut(42)
	sp.NoteSpill(4096)
	sp.End()
	out := Waterfall(tr.Finish())
	for _, want := range []string{"operator", "query", "scan r", "42", "1 spills (4096 B)"} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	if got := Waterfall(nil); got != "(no trace recorded)\n" {
		t.Errorf("Waterfall(nil) = %q", got)
	}
}

func TestFindAndWalk(t *testing.T) {
	tr := NewTracer()
	tr.Start("a", KindJoin).End()
	tr.Start("b", KindSort).End()
	rec := tr.Finish()
	if s := rec.Find(KindSort); s == nil || s.Op != "b" {
		t.Fatalf("Find(sort) = %v", s)
	}
	var ops []string
	rec.Walk(func(s *SpanRecord) { ops = append(ops, s.Op) })
	if len(ops) != 3 || ops[0] != "query" || ops[1] != "a" || ops[2] != "b" {
		t.Fatalf("walk order = %v", ops)
	}
}

func TestSlowLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	log := NewSlowLog(&buf)
	tr := NewTracer()
	tr.Start("scan r", KindScan).End()
	entry := &SlowLogEntry{
		Time:       time.Now().UTC(),
		Query:      "select * from r",
		DurationMS: 12.5,
		Plan:       "plan text",
		PeakBytes:  1024,
		Spills:     1,
		SpillBytes: 4096,
		Trace:      tr.Finish(),
	}
	if err := log.Record(entry); err != nil {
		t.Fatal(err)
	}
	if err := log.Record(&SlowLogEntry{Query: "second", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSlowLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d entries, want 2", len(got))
	}
	e := got[0]
	if e.Query != entry.Query || e.DurationMS != entry.DurationMS ||
		e.PeakBytes != entry.PeakBytes || e.SpillBytes != entry.SpillBytes {
		t.Fatalf("round-trip mismatch: %+v", e)
	}
	if e.Trace == nil || e.Trace.Kind != KindQuery || e.Trace.Children[0].Op != "scan r" {
		t.Fatalf("trace did not round-trip: %+v", e.Trace)
	}
	if got[1].Error != "boom" {
		t.Fatalf("error field did not round-trip: %+v", got[1])
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.NoteQuery(10*time.Millisecond, nil, false)
	r.NoteQuery(20*time.Millisecond, errors.New("x"), true)
	r.NoteQuery(time.Millisecond, wrapCanceled{}, false)

	tr := NewTracer()
	sp := tr.Start("scan r", KindScan)
	sp.AddRowsIn(100)
	sp.AddRowsOut(50)
	sp.NoteSpill(2048)
	sp.End()
	r.ObserveTrace(tr.Finish())
	r.ObserveQError(4)

	snap := r.Snapshot()
	if snap["queries"].(int64) != 3 {
		t.Fatalf("queries = %v", snap["queries"])
	}
	if snap["query_errors"].(int64) != 1 {
		t.Fatalf("query_errors = %v", snap["query_errors"])
	}
	if snap["cancellations"].(int64) != 1 {
		t.Fatalf("cancellations = %v", snap["cancellations"])
	}
	if snap["slow_queries"].(int64) != 1 {
		t.Fatalf("slow_queries = %v", snap["slow_queries"])
	}
	if snap["spills"].(int64) != 1 || snap["spill_bytes"].(int64) != 2048 {
		t.Fatalf("spills = %v/%v", snap["spills"], snap["spill_bytes"])
	}
	ops := snap["operators"].(map[string]OpMetrics)
	if m := ops[KindScan]; m.Calls != 1 || m.RowsIn != 100 || m.RowsOut != 50 {
		t.Fatalf("scan metrics = %+v", m)
	}
	text := r.MetricsText()
	for _, want := range []string{"nra_queries 3", "nra_cancellations 1", `nra_op_calls{kind="scan"} 1`} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q:\n%s", want, text)
		}
	}
}

// wrapCanceled mimics an operator error wrapping context.Canceled.
type wrapCanceled struct{}

func (wrapCanceled) Error() string { return "query canceled" }
func (wrapCanceled) Unwrap() error { return context.Canceled }

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.NoteQuery(time.Microsecond, nil, false)
				tr := NewTracer()
				sp := tr.Start("scan r", KindScan)
				sp.AddRowsOut(1)
				sp.End()
				r.ObserveTrace(tr.Finish())
				r.ObserveQError(2)
				_ = r.Snapshot()
				_ = r.MetricsText()
			}
		}()
	}
	wg.Wait()
	if n := r.Snapshot()["queries"].(int64); n != 1600 {
		t.Fatalf("queries = %d, want 1600", n)
	}
}
