// Package obsv is the engine's observability subsystem: per-operator
// trace spans, a process-wide metrics registry exported via expvar, a
// structured (JSON lines) slow-query log, and an opt-in debug HTTP
// endpoint serving expvar and net/http/pprof.
//
// The design goal is strict pay-for-use: every Span and Tracer method is
// safe on a nil receiver and does nothing, so an operator records into
// the current trace with plain calls and a disabled trace costs only nil
// checks — zero allocations on the per-tuple hot path (asserted by
// tests). Span field updates are coarse (operator entry/exit, per
// reservation or spill), never per tuple, so a plain mutex on the owning
// Tracer is cheap and keeps the package race-free.
//
// See docs/OBSERVABILITY.md for the span model, metric names and the
// slow-query log schema.
package obsv

import (
	"sync"
	"time"
)

// Span kinds: the operator class a span measures. The registry
// aggregates cumulative rows and time per kind.
const (
	// KindQuery is the implicit root span of every trace.
	KindQuery = "query"
	// KindPlan marks a planner-level operator span (the EXPLAIN ANALYZE
	// rows): reduce, outer join, nest+link, finish, and friends.
	KindPlan = "plan"
	// KindScan is a base-relation scan.
	KindScan = "scan"
	// KindJoin is an in-memory (hash or nested-loop) join.
	KindJoin = "join"
	// KindGraceJoin is the budget-bounded chunked spill join.
	KindGraceJoin = "gracejoin"
	// KindSort is an in-memory pre-nest sort.
	KindSort = "sort"
	// KindExtSort is the external merge sort a budget-exceeded sort
	// degrades to.
	KindExtSort = "extsort"
	// KindNestLink is the fused nest + linking selection (§4.2.2).
	KindNestLink = "nestlink"
	// KindChain is the fully fused nest chain (§4.2.1).
	KindChain = "nestlinkchain"
)

// Span is one live operator measurement inside a Tracer's span tree:
// wall-clock start/elapsed, rows in/out, working-state bytes reserved
// and spill events. A nil *Span is the disabled trace; every method on
// it is a no-op.
//
// Spans are opened and closed on the query's driving goroutine (operator
// entry points are sequential); the owning Tracer's lock lets another
// goroutine snapshot a trace while it is still being recorded.
type Span struct {
	tr     *Tracer
	parent *Span

	op      string
	kind    string
	start   time.Duration // offset from the trace's start
	elapsed time.Duration
	ended   bool

	est                float64 // estimated output rows; < 0 = none
	rowsIn, rowsOut    int64
	batches            int64 // batches processed by a vectorized operator
	bytes              int64 // working-state bytes reserved under this span
	spills, spillBytes int64
	children           []*Span
}

// Tracer records one query's span tree. The zero value is not usable;
// construct with NewTracer. A nil *Tracer is the disabled tracer: Start
// returns a nil Span and costs nothing.
type Tracer struct {
	mu   sync.Mutex
	t0   time.Time
	root *Span
	cur  *Span

	// session / queryID label the trace's root record so concurrent
	// queries' slow-log entries and span trees stay attributable — see
	// Tag.
	session string
	queryID uint64
}

// NewTracer returns a tracer whose clock starts now, with an open root
// span of kind KindQuery.
func NewTracer() *Tracer {
	t := &Tracer{t0: time.Now()}
	t.root = &Span{tr: t, op: "query", kind: KindQuery, est: -1}
	t.cur = t.root
	return t
}

// Start opens a child span of the innermost open span and makes it
// current. It returns nil on a nil tracer.
func (t *Tracer) Start(op, kind string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, parent: t.cur, op: op, kind: kind, start: time.Since(t.t0), est: -1}
	t.cur.children = append(t.cur.children, sp)
	t.cur = sp
	return sp
}

// Current returns the innermost open span (the root before any Start),
// or nil on a nil tracer. The executor uses it to credit bytes and
// spills to whatever operator is running.
func (t *Tracer) Current() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// endLocked closes s (and, if s is an ancestor of the current span, every
// span on the path down to it — robustness against error paths that skip
// an End) and pops the current-span stack. t.mu must be held.
func (t *Tracer) endLocked(s *Span) {
	now := time.Since(t.t0)
	if !s.ended {
		s.ended = true
		s.elapsed = now - s.start
	}
	// Pop the stack if s lies on the open chain.
	for c := t.cur; c != nil; c = c.parent {
		if c != s {
			continue
		}
		for d := t.cur; d != s; d = d.parent {
			if !d.ended {
				d.ended = true
				d.elapsed = now - d.start
			}
		}
		if s.parent != nil {
			t.cur = s.parent
		} else {
			t.cur = s
		}
		return
	}
}

// Finish closes every open span (including the root) and returns the
// trace's snapshot. It is idempotent: later calls re-snapshot without
// reopening anything.
func (t *Tracer) Finish() *SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	now := time.Since(t.t0)
	for d := t.cur; d != nil; d = d.parent {
		if !d.ended {
			d.ended = true
			d.elapsed = now - d.start
		}
	}
	t.cur = t.root
	t.mu.Unlock()
	return t.Snapshot()
}

// Tag labels the trace with the owning session ID and the session's
// monotonically increasing query ID. The tag lands on the root record of
// every later Snapshot/Finish, keeping concurrent queries' span trees
// attributable to the session that ran them. Safe on a nil tracer.
func (t *Tracer) Tag(session string, queryID uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.session, t.queryID = session, queryID
}

// Snapshot renders the span tree as exported, JSON-serialisable records.
// Open spans report their elapsed time so far. Returns nil on a nil
// tracer.
func (t *Tracer) Snapshot() *SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.t0)
	r := snap(t.root, now)
	r.Session, r.QueryID = t.session, t.queryID
	return r
}

func snap(s *Span, now time.Duration) *SpanRecord {
	r := &SpanRecord{
		Op:         s.op,
		Kind:       s.kind,
		Start:      s.start,
		Elapsed:    s.elapsed,
		EstRows:    s.est,
		RowsIn:     s.rowsIn,
		RowsOut:    s.rowsOut,
		Batches:    s.batches,
		Bytes:      s.bytes,
		Spills:     s.spills,
		SpillBytes: s.spillBytes,
	}
	if !s.ended {
		r.Elapsed = now - s.start
	}
	for _, c := range s.children {
		r.Children = append(r.Children, snap(c, now))
	}
	return r
}

// End closes the span, recording its elapsed wall time. No-op on nil or
// an already-ended span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.endLocked(s)
	s.tr.mu.Unlock()
}

// SetKind reclassifies the span (e.g. a sort that degraded to an
// external merge becomes KindExtSort).
func (s *Span) SetKind(kind string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.kind = kind
	s.tr.mu.Unlock()
}

// SetEst records the planner's estimated output rows (< 0 = none).
func (s *Span) SetEst(rows float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.est = rows
	s.tr.mu.Unlock()
}

// AddRowsIn adds to the span's input-row count.
func (s *Span) AddRowsIn(n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.rowsIn += n
	s.tr.mu.Unlock()
}

// AddRowsOut adds to the span's output-row count.
func (s *Span) AddRowsOut(n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.rowsOut += n
	s.tr.mu.Unlock()
}

// AddBatches adds to the span's processed-batch count. Row counts stay
// in rows_in/rows_out; a vectorized operator additionally accounts the
// batches it moved, so traces show batch granularity separately from
// row volume. Like every Span method it is a no-op on a nil receiver,
// preserving the zero-allocation disabled path.
func (s *Span) AddBatches(n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.batches += n
	s.tr.mu.Unlock()
}

// AddBytes credits working-state bytes reserved while this span ran.
func (s *Span) AddBytes(n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.bytes += n
	s.tr.mu.Unlock()
}

// NoteSpill records one spill event of the given size against the span.
func (s *Span) NoteSpill(bytes int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.spills++
	s.spillBytes += bytes
	s.tr.mu.Unlock()
}
