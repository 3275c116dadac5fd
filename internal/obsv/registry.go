package obsv

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nra/internal/stats"
)

// Registry is the process-wide metrics accumulator: query counts and
// outcomes, per-operator-kind cumulative rows/time/spills (aggregated
// from finished traces), and the estimator q-error histogram. All
// methods are safe for concurrent use; the cheap counters are updated on
// every query, the per-kind aggregates only when a query ran with
// tracing enabled.
type Registry struct {
	queries       atomic.Int64
	queryErrors   atomic.Int64
	cancellations atomic.Int64
	slowQueries   atomic.Int64
	spills        atomic.Int64
	spillBytes    atomic.Int64
	queryNanos    atomic.Int64

	mu     sync.Mutex
	ops    map[string]*OpMetrics
	gauges []gauge

	qerr stats.QErrorHist

	publishOnce sync.Once
}

// gauge is a registered callback metric: subsystems with their own state
// (the serving layer's plan cache, admission queue, session table) expose
// point-in-time values through it instead of double-accounting into the
// registry's counters.
type gauge struct {
	name string
	fn   func() int64
}

// OpMetrics is the cumulative per-operator-kind aggregate exported by
// the registry.
type OpMetrics struct {
	Calls   int64         `json:"calls"`
	RowsIn  int64         `json:"rows_in"`
	RowsOut int64         `json:"rows_out"`
	Time    time.Duration `json:"time_ns"`
	Spills  int64         `json:"spills"`
}

// defaultRegistry is the process-wide instance behind Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every query reports into.
func Default() *Registry { return defaultRegistry }

// NewRegistry returns an empty registry (tests; production code uses
// Default).
func NewRegistry() *Registry { return &Registry{ops: make(map[string]*OpMetrics)} }

// NoteQuery records one finished query: its duration, outcome (err may
// be nil) and whether it crossed the slow-query threshold.
// Cancellations — context.Canceled or context.DeadlineExceeded anywhere
// in the error chain — are counted separately from other errors.
func (r *Registry) NoteQuery(d time.Duration, err error, slow bool) {
	if r == nil {
		return
	}
	r.queries.Add(1)
	r.queryNanos.Add(int64(d))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			r.cancellations.Add(1)
		} else {
			r.queryErrors.Add(1)
		}
	}
	if slow {
		r.slowQueries.Add(1)
	}
}

// ObserveTrace folds a finished trace into the per-operator-kind
// aggregates and the spill counters. Plan- and query-level spans carry
// planner bookkeeping, not physical work, and are skipped for the
// per-kind rows/time sums (their spills still count).
func (r *Registry) ObserveTrace(rec *SpanRecord) {
	if r == nil || rec == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec.Walk(func(s *SpanRecord) {
		r.spills.Add(s.Spills)
		r.spillBytes.Add(s.SpillBytes)
		if s.Kind == KindQuery || s.Kind == KindPlan {
			return
		}
		m := r.ops[s.Kind]
		if m == nil {
			m = &OpMetrics{}
			r.ops[s.Kind] = m
		}
		m.Calls++
		m.RowsIn += s.RowsIn
		m.RowsOut += s.RowsOut
		m.Time += s.Elapsed
		m.Spills += s.Spills
	})
}

// ObserveQError records one estimator q-error observation.
func (r *Registry) ObserveQError(q float64) {
	if r == nil {
		return
	}
	r.qerr.Note(q)
}

// RegisterGauge adds a named callback metric to the registry: fn is
// polled on every Snapshot / MetricsText and its value exported as
// "nra_<name>". fn must be safe for concurrent use and must not call
// back into the registry. Registering a name twice replaces the earlier
// callback (the serving layer re-registers across restarts in tests).
func (r *Registry) RegisterGauge(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.gauges {
		if r.gauges[i].name == name {
			r.gauges[i].fn = fn
			return
		}
	}
	r.gauges = append(r.gauges, gauge{name: name, fn: fn})
}

// Snapshot returns the registry's state as a JSON-friendly map — the
// value served at /debug/vars under the "nra" key.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	out := map[string]any{
		"queries":        r.queries.Load(),
		"query_errors":   r.queryErrors.Load(),
		"cancellations":  r.cancellations.Load(),
		"slow_queries":   r.slowQueries.Load(),
		"spills":         r.spills.Load(),
		"spill_bytes":    r.spillBytes.Load(),
		"query_time_ns":  r.queryNanos.Load(),
		"qerror_count":   r.qerr.Count(),
		"qerror_max":     r.qerr.Max(),
		"qerror_p90":     r.qerr.Quantile(0.9),
		"qerror_buckets": r.qerr.Buckets(),
	}
	ops := make(map[string]OpMetrics)
	r.mu.Lock()
	for k, m := range r.ops {
		ops[k] = *m
	}
	gauges := append([]gauge(nil), r.gauges...)
	r.mu.Unlock()
	// Poll gauges outside the lock: their callbacks reach into other
	// subsystems' state and must not nest under the registry mutex.
	for _, g := range gauges {
		out[g.name] = g.fn()
	}
	out["operators"] = ops
	return out
}

// MetricsText renders the snapshot as sorted "name value" lines — the
// plain-text body served at /debug/metrics.
func (r *Registry) MetricsText() string {
	snap := r.Snapshot()
	if snap == nil {
		return ""
	}
	var b strings.Builder
	keys := make([]string, 0, len(snap))
	for k := range snap {
		if k == "operators" || k == "qerror_buckets" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "nra_%s %v\n", k, snap[k])
	}
	ops := snap["operators"].(map[string]OpMetrics)
	kinds := make([]string, 0, len(ops))
	for k := range ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		m := ops[k]
		fmt.Fprintf(&b, "nra_op_calls{kind=%q} %d\n", k, m.Calls)
		fmt.Fprintf(&b, "nra_op_rows_in{kind=%q} %d\n", k, m.RowsIn)
		fmt.Fprintf(&b, "nra_op_rows_out{kind=%q} %d\n", k, m.RowsOut)
		fmt.Fprintf(&b, "nra_op_time_ns{kind=%q} %d\n", k, int64(m.Time))
		fmt.Fprintf(&b, "nra_op_spills{kind=%q} %d\n", k, m.Spills)
	}
	return b.String()
}

// Publish exports the registry under the expvar name "nra". expvar
// panics on duplicate names, so publication happens at most once per
// registry; only the debug endpoint (and tests via expvar.Get) need it —
// in-process readers use Snapshot directly.
func (r *Registry) Publish() {
	r.publishOnce.Do(func() {
		name := "nra"
		if r != defaultRegistry {
			name = fmt.Sprintf("nra-%p", r)
		}
		expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	})
}
