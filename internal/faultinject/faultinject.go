// Package faultinject drives the executor's fault-injection hooks
// (exec.FaultHooks) deterministically: it counts every interception
// point a query passes through, and can be armed to fail the n-th
// allocation, the n-th checkpoint, or the n-th spill-file operation —
// or to cancel the query's context at a checkpoint, or to force every
// spillable operator down its spill path regardless of budget.
//
// The intended protocol is census-then-strike:
//
//	inj := faultinject.New().Record()
//	runQuery(inj.Hooks())            // records every point the query hits
//	for _, pt := range inj.Points() {
//	    inj2 := faultinject.New()
//	    inj2.ArmAt(pt)               // fail exactly that point
//	    runQuery(inj2.Hooks())       // must fail fast and leak nothing
//	}
//
// Injectors are safe for concurrent use (concurrent queries may share
// one); arm them before the query starts, not during.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"nra/internal/exec"
)

// ErrInjected is the sentinel wrapped by every injected failure;
// errors.Is(err, ErrInjected) identifies a fault as synthetic.
var ErrInjected = errors.New("faultinject: injected fault")

// Kinds of interception points.
const (
	KindAlloc   = "alloc"    // exec.FaultHooks.BeforeAlloc
	KindCheck   = "check"    // exec.FaultHooks.OnCheck
	KindSpillIO = "spill-io" // exec.FaultHooks.SpillIO
)

// Point identifies one interception point observed during a census run:
// the n-th call of the given kind, which happened at operator op. Arming
// an injector at a Point reproduces a failure at exactly that call.
type Point struct {
	Kind string
	Op   string
	N    int64 // 1-based global call index within the kind
}

func (p Point) String() string { return fmt.Sprintf("%s#%d@%s", p.Kind, p.N, p.Op) }

// Injector implements the hook set. The zero value is not usable;
// construct with New.
type Injector struct {
	allocs, checks, spills atomic.Int64 // running call counts

	// Armed triggers (0 = disarmed). Set before the query runs.
	failAllocAt, failCheckAt, failSpillAt int64
	cancelAt                              int64
	cancel                                func()
	forceSpill                            bool

	record bool
	mu     sync.Mutex
	seen   map[string]Point // kind+"/"+op -> first occurrence
}

// New returns a disarmed injector that only counts calls.
func New() *Injector { return &Injector{seen: make(map[string]Point)} }

// Record switches the injector into census mode: every distinct
// (kind, operator) point is remembered with its first call index,
// retrievable via Points. Returns the injector for chaining.
func (in *Injector) Record() *Injector { in.record = true; return in }

// FailAllocAt arms the injector to fail the n-th working-state
// reservation (1-based), simulating an allocation failure.
func (in *Injector) FailAllocAt(n int64) *Injector { in.failAllocAt = n; return in }

// FailCheckAt arms the injector to return an error from the n-th
// operator checkpoint (1-based).
func (in *Injector) FailCheckAt(n int64) *Injector { in.failCheckAt = n; return in }

// FailSpillIOAt arms the injector to fail the n-th spill-file operation
// (1-based), simulating a disk fault mid-spill.
func (in *Injector) FailSpillIOAt(n int64) *Injector { in.failSpillAt = n; return in }

// CancelAtCheck arms the injector to call cancel at the n-th operator
// checkpoint (1-based) — the checkpoint itself does not fail, so the
// query aborts through the normal cancellation path, mid-Next.
func (in *Injector) CancelAtCheck(n int64, cancel func()) *Injector {
	in.cancelAt, in.cancel = n, cancel
	return in
}

// ForceSpill makes every spillable operator take its spill path even
// under an unbounded budget.
func (in *Injector) ForceSpill(v bool) *Injector { in.forceSpill = v; return in }

// ArmAt arms the trigger matching pt's kind at pt's call index.
func (in *Injector) ArmAt(pt Point) *Injector {
	switch pt.Kind {
	case KindAlloc:
		in.FailAllocAt(pt.N)
	case KindCheck:
		in.FailCheckAt(pt.N)
	case KindSpillIO:
		in.FailSpillIOAt(pt.N)
	default:
		panic("faultinject: unknown point kind " + pt.Kind)
	}
	return in
}

// Points returns every distinct (kind, operator) interception point
// observed in census mode, each with its first call index, ordered by
// kind then operator.
func (in *Injector) Points() []Point {
	in.mu.Lock()
	defer in.mu.Unlock()
	pts := make([]Point, 0, len(in.seen))
	for _, p := range in.seen {
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Kind != pts[j].Kind {
			return pts[i].Kind < pts[j].Kind
		}
		return pts[i].Op < pts[j].Op
	})
	return pts
}

func (in *Injector) note(kind, op string, n int64) {
	if !in.record {
		return
	}
	key := kind + "/" + op
	in.mu.Lock()
	if _, ok := in.seen[key]; !ok {
		in.seen[key] = Point{Kind: kind, Op: op, N: n}
	}
	in.mu.Unlock()
}

// Hooks returns the exec.FaultHooks backed by this injector. Install
// them via core.Options.Hooks (or exec.Limits.Hooks).
func (in *Injector) Hooks() *exec.FaultHooks {
	return &exec.FaultHooks{
		BeforeAlloc: func(op string, bytes int64) error {
			n := in.allocs.Add(1)
			in.note(KindAlloc, op, n)
			if in.failAllocAt != 0 && n == in.failAllocAt {
				return fmt.Errorf("%w: alloc #%d (%d bytes) at %s", ErrInjected, n, bytes, op)
			}
			return nil
		},
		OnCheck: func(op string) error {
			n := in.checks.Add(1)
			in.note(KindCheck, op, n)
			if in.cancelAt != 0 && n == in.cancelAt && in.cancel != nil {
				in.cancel()
			}
			if in.failCheckAt != 0 && n == in.failCheckAt {
				return fmt.Errorf("%w: check #%d at %s", ErrInjected, n, op)
			}
			return nil
		},
		ForceSpill: func(op string) bool { return in.forceSpill },
		SpillIO: func(op string) error {
			n := in.spills.Add(1)
			in.note(KindSpillIO, op, n)
			if in.failSpillAt != 0 && n == in.failSpillAt {
				return fmt.Errorf("%w: spill-io #%d at %s", ErrInjected, n, op)
			}
			return nil
		},
	}
}
