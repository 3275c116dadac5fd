package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/value"
)

// This file is the resource-governance substrate of the executor. Every
// physical operator runs under a per-query ExecContext carrying
//
//   - cancellation: a context.Context (plus an optional deadline) whose
//     cancellation is observed at operator boundaries — between tuples in
//     probe/scan loops, between spill chunks and sort runs — so an abort
//     takes effect promptly and leaks nothing;
//   - a memory budget: a byte-accounted bound on operator *working state*
//     (hash-join build tables, sort copies, external-merge run buffers).
//     When an operator's working state would exceed the budget it degrades
//     gracefully — grace-hash chunking for joins, external merge for sorts
//     — spilling to temp files and producing byte-identical output. Inputs
//     and outputs themselves are not charged: the engine's contract is
//     materialised *relation.Relation values, so the budget governs the
//     *extra* state an operator holds, mirroring a work_mem-style knob;
//   - fault hooks: optional test-only interception points (FaultHooks)
//     that deterministically inject allocation failures, forced spills,
//     spill-I/O errors and mid-operator cancellations;
//   - panic containment: Guard converts an operator panic into a
//     *QueryError carrying the operator path, so one poisoned tuple cannot
//     take down the process.

// QueryError is the error type every contained failure surfaces as: a
// recovered panic, a cancellation observed inside an operator, an injected
// fault, or a hard budget violation. Op is the operator path (for example
// "join/probe" or "nestlink/sort/run"). It unwraps, so errors.Is sees
// context.Canceled, context.DeadlineExceeded and injected sentinels.
type QueryError struct {
	Op  string
	Err error
}

// Error formats the failure with its operator context.
func (e *QueryError) Error() string { return fmt.Sprintf("exec: %s: %v", e.Op, e.Err) }

// Unwrap returns the underlying cause (errors.Is/As support).
func (e *QueryError) Unwrap() error { return e.Err }

// ErrBudget reports that an operator needed memory above the budget in a
// place that cannot spill (fixed per-operator state). It surfaces only in
// pathological configurations; spillable state never returns it.
var ErrBudget = errors.New("memory budget exceeded")

// FaultHooks are the interception points the fault-injection harness
// (internal/faultinject) installs. All fields are optional; a nil hook
// costs one pointer check. Concurrent queries may share one set of hooks,
// so hooks must be safe for concurrent use.
type FaultHooks struct {
	// BeforeAlloc runs before each working-state reservation; returning an
	// error simulates an allocation failure (surfaced as a *QueryError).
	BeforeAlloc func(op string, bytes int64) error
	// OnCheck runs at every operator checkpoint (Check); returning an
	// error injects a failure at that point. It may also cancel the
	// query's context to exercise mid-Next cancellation.
	OnCheck func(op string) error
	// ForceSpill forces the named operator to take its spill path even
	// when the budget would fit (or is unbounded).
	ForceSpill func(op string) bool
	// SpillIO runs before each spill-file operation (create/write/read);
	// returning an error injects a disk fault.
	SpillIO func(op string) error
}

// Limits configures an ExecContext.
type Limits struct {
	// MemoryBudget bounds operator working state, in bytes; 0 = unbounded.
	MemoryBudget int64
	// Timeout aborts the query this long after NewExecContext; 0 = none.
	Timeout time.Duration
	// TempDir hosts spill files ("" = os.TempDir()). Each query creates
	// one "nra-spill-*" directory under it, removed by Close.
	TempDir string
	// Hooks installs fault-injection interception points (tests only).
	Hooks *FaultHooks
	// Tracer, when non-nil, records a per-operator span tree for the
	// query. Nil disables tracing at zero per-tuple cost.
	Tracer *obsv.Tracer
	// MemPool, when non-nil, additionally charges every working-state
	// reservation against a budget shared with other concurrent queries
	// (the serving layer's admission pool). A reservation the pool
	// refuses degrades the operator to its spill path, exactly like a
	// per-query budget refusal. Close returns any outstanding charge.
	MemPool *MemPool
}

// Stats is a snapshot of an ExecContext's resource accounting.
type Stats struct {
	PeakBytes  int64 // high-water mark of reserved working state
	Spills     int64 // spill events (chunked joins, external sort runs)
	SpillBytes int64 // bytes written to spill files
}

// ExecContext is the per-query execution context passed to every
// physical operator: the query's cancellation, its budget and spill
// ledger, and its temp directory. The zero value is not usable;
// construct with NewExecContext or use Background.
type ExecContext struct {
	limits Limits

	ctx     context.Context
	cancel  context.CancelFunc
	done    <-chan struct{}       // ctx.Done(), cached at construction
	aborted atomic.Pointer[error] // cached ctx error, set by the first observer
	once    sync.Once             // Close idempotence

	used, peak, spills, spillBytes atomic.Int64

	// poolCharged tracks how many bytes this query currently holds from
	// the shared MemPool, so Close can return anything an error path
	// failed to Release — the pool must never leak across queries.
	poolCharged atomic.Int64

	// planned holds operator names the cost-based planner decided will
	// exceed the budget: those operators take their spill path from the
	// start instead of attempting an in-memory build first. Written once
	// during planning (before operators run), read by the operators.
	planned map[string]bool

	tmpMu  sync.Mutex
	tmpDir string
}

// background is the shared ungoverned context: no budget, no deadline, no
// hooks. Operators invoked through the compatibility wrappers run under it
// with near-zero overhead (nil checks only).
var background = &ExecContext{ctx: context.Background()}

// Background returns the shared ungoverned ExecContext. It must not be
// Closed (Close on it is a no-op).
func Background() *ExecContext { return background }

// NewExecContext returns a context governed by the given limits. ctx may
// be nil (context.Background()). Close must be called when the query
// finishes — it cancels the context, returns pooled bytes and removes
// the spill directory.
func NewExecContext(ctx context.Context, limits Limits) *ExecContext {
	if ctx == nil {
		ctx = context.Background()
	}
	ec := &ExecContext{limits: limits, ctx: ctx}
	if limits.Timeout > 0 {
		ec.ctx, ec.cancel = context.WithTimeout(ec.ctx, limits.Timeout)
	}
	ec.done = ec.ctx.Done()
	return ec
}

// Close releases the context: it cancels outstanding work, returns any
// pooled bytes and removes the query's spill directory — even after an
// error or a cancellation, so no temp files outlive the query. Close is
// idempotent.
func (ec *ExecContext) Close() error {
	if ec == background {
		return nil
	}
	var err error
	ec.once.Do(func() {
		if ec.cancel != nil {
			ec.cancel()
		}
		if p := ec.limits.MemPool; p != nil {
			if rem := ec.poolCharged.Swap(0); rem > 0 {
				p.Release(rem)
			}
		}
		ec.tmpMu.Lock()
		dir := ec.tmpDir
		ec.tmpDir = ""
		ec.tmpMu.Unlock()
		if dir != "" {
			err = os.RemoveAll(dir)
		}
	})
	return err
}

// Context returns the underlying context.Context.
func (ec *ExecContext) Context() context.Context { return ec.ctx }

// Governed reports whether the context imposes any governance — a budget
// (per-query or pooled), possible cancellation, or fault hooks.
// Ungoverned contexts keep every operator on its zero-overhead in-memory
// fast path.
func (ec *ExecContext) Governed() bool {
	return ec.limits.MemoryBudget > 0 || ec.limits.MemPool != nil ||
		ec.limits.Hooks != nil || ec.ctx.Done() != nil
}

// Tracing reports whether the context carries a tracer. Operators use it
// to skip label formatting; span methods themselves are nil-safe and
// need no guard.
func (ec *ExecContext) Tracing() bool { return ec.limits.Tracer != nil }

// StartSpan opens a child span of the innermost open span and makes it
// current. With tracing disabled it returns nil, on which every Span
// method is a no-op. Tracing never changes which physical path an
// operator takes — Governed deliberately ignores the tracer.
func (ec *ExecContext) StartSpan(op, kind string) *obsv.Span {
	return ec.limits.Tracer.Start(op, kind)
}

// Err returns the cancellation error, if any, without wrapping. After
// cancellation the error is cached in an atomic, so the steady state is
// one load; before it, a non-blocking poll of the done channel makes
// cancellation deterministic — a cancel that happened-before Err is
// always observed, never deferred to a background goroutine.
func (ec *ExecContext) Err() error {
	if p := ec.aborted.Load(); p != nil {
		return *p
	}
	if ec.done != nil {
		select {
		case <-ec.done:
			err := ec.ctx.Err()
			ec.aborted.Store(&err)
			return err
		default:
		}
	}
	return nil
}

// Check is the operator checkpoint: it runs the OnCheck fault hook and
// observes cancellation. Operators call it at loop boundaries; a non-nil
// return must abort the operator. The error is a *QueryError wrapping the
// cause, so the operator path survives to the caller.
func (ec *ExecContext) Check(op string) error {
	if h := ec.limits.Hooks; h != nil && h.OnCheck != nil {
		if err := h.OnCheck(op); err != nil {
			return &QueryError{Op: op, Err: err}
		}
	}
	if err := ec.Err(); err != nil {
		return &QueryError{Op: op, Err: err}
	}
	return nil
}

// TryReserve reserves n bytes of working state for op. It returns
// (false, nil) when the reservation would exceed the budget — the caller
// should degrade to its spill path — and a non-nil error only for an
// injected allocation failure. The caller must Release what it reserved.
func (ec *ExecContext) TryReserve(op string, n int64) (bool, error) {
	if h := ec.limits.Hooks; h != nil && h.BeforeAlloc != nil {
		if err := h.BeforeAlloc(op, n); err != nil {
			return false, &QueryError{Op: op, Err: err}
		}
	}
	if b := ec.limits.MemoryBudget; b > 0 {
		for {
			cur := ec.used.Load()
			if cur+n > b {
				return false, nil
			}
			if ec.used.CompareAndSwap(cur, cur+n) {
				break
			}
		}
	} else {
		ec.used.Add(n)
	}
	if p := ec.limits.MemPool; p != nil {
		if !p.TryReserve(n) {
			ec.used.Add(-n)
			return false, nil
		}
		ec.poolCharged.Add(n)
	}
	for {
		p, u := ec.peak.Load(), ec.used.Load()
		if u <= p || ec.peak.CompareAndSwap(p, u) {
			break
		}
	}
	if ec.limits.Tracer != nil {
		ec.limits.Tracer.Current().AddBytes(n)
	}
	return true, nil
}

// Reserve charges n bytes of fixed (non-spillable) per-operator state —
// bitmaps, merge cursors. It runs the allocation hook and the accounting
// but never fails on the budget itself, because this state has no disk
// fallback; it only surfaces ErrBudget when n alone exceeds ten times the
// whole budget (a configuration error, not memory pressure).
func (ec *ExecContext) Reserve(op string, n int64) error {
	if b := ec.limits.MemoryBudget; b > 0 && n > 10*b {
		return &QueryError{Op: op, Err: ErrBudget}
	}
	if h := ec.limits.Hooks; h != nil && h.BeforeAlloc != nil {
		if err := h.BeforeAlloc(op, n); err != nil {
			return &QueryError{Op: op, Err: err}
		}
	}
	ec.used.Add(n)
	if p := ec.limits.MemPool; p != nil {
		p.Reserve(n)
		ec.poolCharged.Add(n)
	}
	for {
		p, u := ec.peak.Load(), ec.used.Load()
		if u <= p || ec.peak.CompareAndSwap(p, u) {
			break
		}
	}
	if ec.limits.Tracer != nil {
		ec.limits.Tracer.Current().AddBytes(n)
	}
	return nil
}

// Release returns n reserved bytes (to the shared pool too, when wired).
func (ec *ExecContext) Release(n int64) {
	ec.used.Add(-n)
	if p := ec.limits.MemPool; p != nil {
		p.Release(n)
		ec.poolCharged.Add(-n)
	}
}

// PlanSpill records the planner's decision that the named operators'
// working state will not fit the memory budget; they go straight to
// their spill path (grace join, external sort) rather than building in
// memory first and degrading mid-flight. Call before execution starts —
// the set is not synchronised against running operators. Spilled and
// in-memory paths produce byte-identical results, so a wrong estimate
// costs only performance.
func (ec *ExecContext) PlanSpill(ops ...string) {
	if ec.planned == nil {
		ec.planned = make(map[string]bool, len(ops))
	}
	for _, op := range ops {
		ec.planned[op] = true
	}
}

// ForceSpill reports whether op must take its spill path: either the
// cost-based planner decided so (PlanSpill) or the fault hooks force it.
func (ec *ExecContext) ForceSpill(op string) bool {
	if ec.planned[op] {
		return true
	}
	h := ec.limits.Hooks
	return h != nil && h.ForceSpill != nil && h.ForceSpill(op)
}

// NoteSpill records one spill event of the given size.
func (ec *ExecContext) NoteSpill(bytes int64) {
	ec.spills.Add(1)
	ec.spillBytes.Add(bytes)
	if tr := ec.limits.Tracer; tr != nil {
		tr.Current().NoteSpill(bytes)
	}
}

// Stats snapshots the resource accounting.
func (ec *ExecContext) Stats() Stats {
	return Stats{
		PeakBytes:  ec.peak.Load(),
		Spills:     ec.spills.Load(),
		SpillBytes: ec.spillBytes.Load(),
	}
}

// spillChunkBytes is the working-state bound per spill chunk (one join
// build chunk, one external-sort run): half the budget, so the chunk and
// its bookkeeping fit together, or a fixed default under forced spills
// with no budget.
func (ec *ExecContext) spillChunkBytes() int64 {
	if b := ec.limits.MemoryBudget; b > 0 {
		if half := b / 2; half > 0 {
			return half
		}
		return 1
	}
	return 1 << 20
}

// tempFile creates a spill file for op under the query's spill directory,
// creating the directory on first use. The SpillIO hook runs first.
func (ec *ExecContext) tempFile(op string) (*os.File, error) {
	if h := ec.limits.Hooks; h != nil && h.SpillIO != nil {
		if err := h.SpillIO(op); err != nil {
			return nil, &QueryError{Op: op, Err: err}
		}
	}
	ec.tmpMu.Lock()
	defer ec.tmpMu.Unlock()
	if ec.tmpDir == "" {
		dir, err := os.MkdirTemp(ec.limits.TempDir, "nra-spill-")
		if err != nil {
			return nil, &QueryError{Op: op, Err: err}
		}
		ec.tmpDir = dir
	}
	f, err := os.CreateTemp(ec.tmpDir, "chunk-*")
	if err != nil {
		return nil, &QueryError{Op: op, Err: err}
	}
	return f, nil
}

// spillIO runs the spill-I/O fault hook for op (no-op without hooks).
func (ec *ExecContext) spillIO(op string) error {
	if h := ec.limits.Hooks; h != nil && h.SpillIO != nil {
		if err := h.SpillIO(op); err != nil {
			return &QueryError{Op: op, Err: err}
		}
	}
	return nil
}

// Guard converts a panic in the enclosing function into a *QueryError
// carrying the operator path. Use as
//
//	defer exec.Guard("join/probe", &err)
//
// in every operator entry point.
func Guard(op string, err *error) {
	if r := recover(); r != nil {
		*err = &QueryError{Op: op, Err: fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
	}
}

// valueBytes is the accounted footprint of one atomic value: the Value
// struct (kind + int64 + float64 + string header) plus string payload.
func valueBytes(v value.Value) int64 {
	n := int64(40)
	if v.Kind() == value.KindString {
		n += int64(len(v.Text()))
	}
	return n
}

// TupleBytes is the accounted deep footprint of a tuple: two slice
// headers, each atom, and nested groups recursively. It deliberately
// over-counts shared backing arrays — the model charges an operator for
// every tuple its working state *covers*, which keeps accounting simple,
// deterministic and conservative.
func TupleBytes(t relation.Tuple) int64 {
	n := int64(48)
	for _, v := range t.Atoms {
		n += valueBytes(v)
	}
	for _, g := range t.Groups {
		n += 8
		if g != nil {
			n += 56 // Relation + schema pointer
			for _, gt := range g.Tuples {
				n += TupleBytes(gt)
			}
		}
	}
	return n
}

// tuplesBytes sums TupleBytes over a slice.
func tuplesBytes(ts []relation.Tuple) int64 {
	var n int64
	for _, t := range ts {
		n += TupleBytes(t)
	}
	return n
}
