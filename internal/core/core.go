// Package core implements the nested relational approach of Cao & Badia
// (SIGMOD 2005) for evaluating SQL queries with non-aggregate subqueries:
// the tree-expression construction and Algorithm 1 of §4.1, plus every
// optimization of §4.2 —
//
//	§4.2.1/4.2.2  fused single-pass nest + linking selection, and the
//	              fully fused nest chain for linear queries (one sort,
//	              one scan, all linking predicates);
//	§4.2.3        bottom-up evaluation of linearly correlated queries;
//	§4.2.4        nest push-down below the (outer) join;
//	§4.2.5        algebraic rewriting of positive linking operators into
//	              (semi)joins.
//
// The approach unnests a query top-down into a chain of left outer hash
// joins, then computes the linking predicates bottom-up with nest (υ) and
// the linking selection (σ / σ̄) — uniformly for every linking operator,
// any nesting depth, and with full SQL NULL semantics. No indexes are
// required.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"nra/internal/exec"
	"nra/internal/iomodel"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/sql"
)

// Options selects which §4.2 optimizations are applied. The zero value is
// the original approach of §4.1 (materialised nest, then linking
// selection — two passes per level).
type Options struct {
	// Fused pipelines nest with the adjacent linking selection in a single
	// pass (§4.2.2), and evaluates linear queries with one sort + one scan
	// over the whole join (§4.2.1).
	Fused bool
	// BottomUp processes linearly correlated queries from the innermost
	// block outward, keeping intermediate results small (§4.2.3).
	BottomUp bool
	// NestPushdown moves the nest below the outer join when the nesting
	// attributes equal the equi-join attributes (§4.2.4).
	NestPushdown bool
	// PositiveRewrite turns positive linking operators into (semi)joins
	// when no pending negative operator forbids it (§4.2.5).
	PositiveRewrite bool
	// AlwaysPad forces the pseudo-selection σ̄ even where the strict σ
	// would do; used by the equivalence tests.
	AlwaysPad bool
	// TwoValuedLogic evaluates the query under Libkin-style two-valued
	// logic ("Handling SQL Nulls with Two-Valued Logic"): every comparison
	// involving a NULL is FALSE, never Unknown, and NOT is classical.
	// Under 2VL the negative linking operators (NOT EXISTS, NOT IN, θ ALL)
	// are plain antijoins, which the planner exploits at strict leaves.
	// The one NULL the base data never held — SUM/AVG/MIN/MAX over an
	// empty subquery — keeps its 3VL Unknown, so on NULL-free data 2VL
	// and 3VL results coincide unconditionally (fuzzer-checked).
	TwoValuedLogic bool
	// UseStats lets the planner read the catalog's collected statistics
	// (catalog.Table.Analyze) for cardinality estimation. Estimation is
	// all-or-nothing: one table with absent or stale statistics disables
	// it for the whole query, so planning degrades to the heuristics and
	// reproduces their plans exactly.
	UseStats bool
	// CostBased lets the cardinality estimates steer physical decisions:
	// subquery processing order, the §4.2.5 semijoin and §4.2.4 push-down
	// gates and planned grace-join / external-sort spilling against
	// MemoryBudget. No effect without UseStats and fresh
	// statistics. Every choice is between result-equivalent plans.
	CostBased bool
	// Vectorized selects the batch-at-a-time operators (internal/vec)
	// for the hot path: vectorized scan→filter→project block reduction,
	// the batched-probe hash join, and the fused nest + linking
	// selection driven by a typed sort and group-offset arrays. Results
	// are byte-identical to the serial row operators — the row engine is
	// the parity oracle, enforced by tests and the differential fuzzer.
	// The batch operators apply only on the in-memory path: with a
	// MemoryBudget, a MemPool, or fault Hooks the planner keeps the row
	// operators (batches do not spill), and any
	// operator whose shape has no batch kernel — nested inputs, non-equi
	// join conditions, predicates the kernel compiler rejects — falls
	// back to its row implementation per operator. EXPLAIN annotates
	// each operator [batch] or [row: reason].
	Vectorized bool
	// NoZoneMapPruning disables row-group pruning against columnar
	// segment zone maps on the vectorized scan path (docs/STORAGE.md).
	// Pruning never changes results — skipped groups are proven empty
	// under the predicate's 3VL truth set by the segment min/max/null
	// zone maps — so this switch exists for the storage ablation and for
	// debugging, not for correctness. No effect on row execution or on
	// catalogs without attached segments.
	NoZoneMapPruning bool
	// Meter, when non-nil, accumulates the plan's modeled disk accesses
	// (sequential scan/write tuples; the nested relational approach never
	// performs random accesses) — see internal/iomodel.
	Meter *iomodel.Meter
	// Trace, when non-nil, receives a line per executed algebra operator
	// with input/output cardinalities — the paper's Temp1→Temp4
	// walkthrough for any query.
	Trace io.Writer
	// MemoryBudget bounds the bytes of operator working state (hash-join
	// build sides, pre-nest sort copies) a query may hold in memory;
	// 0 = unbounded. Operators exceeding it degrade gracefully to spill
	// files with byte-identical results — see docs/ROBUSTNESS.md.
	MemoryBudget int64
	// MemPool, when non-nil, charges the query's working-state
	// reservations against a budget shared with other concurrent queries
	// (the serving layer's pooled admission control) in addition to any
	// per-query MemoryBudget; reservations the pool refuses take the
	// spill path. See exec.MemPool and docs/SERVICE.md.
	MemPool *exec.MemPool
	// Timeout aborts the query with context.DeadlineExceeded this long
	// after Execute starts; 0 = no deadline.
	Timeout time.Duration
	// Ctx, when non-nil, cancels the query when the context is cancelled.
	Ctx context.Context
	// SpillDir hosts the query's spill files ("" = os.TempDir()); the
	// per-query spill directory is always removed when Execute returns.
	SpillDir string
	// Hooks installs fault-injection interception points in every operator
	// (see internal/faultinject); nil in production.
	Hooks *exec.FaultHooks
	// Stats, when non-nil, receives the query's resource accounting (peak
	// working-state bytes, spill events/bytes) when Execute returns.
	Stats *exec.Stats
	// Tracer, when non-nil, records the query's per-operator span tree
	// (see internal/obsv). Execute finishes the tracer before returning;
	// read the tree with Tracer.Finish (idempotent). Nil disables tracing
	// at zero per-tuple cost. Tracing never changes plan or physical-path
	// decisions. ExecuteAnalyzed and a non-nil SlowLog create a private
	// tracer when this is nil.
	Tracer *obsv.Tracer
	// SlowQuery is the slow-query-log threshold: a query whose wall time
	// reaches it is recorded to SlowLog. 0 logs every query (when SlowLog
	// is set).
	SlowQuery time.Duration
	// SlowLog, when non-nil, receives a structured JSON-lines entry —
	// plan, trace tree, est-vs-actual rows, resource stats — for every
	// query at least SlowQuery slow.
	SlowLog *obsv.SlowLog
	// Label identifies the query in the slow-query log (usually its SQL
	// text).
	Label string
	// SessionID and QueryID attribute the query to a serving-layer
	// session and its monotonically increasing per-session query counter.
	// They tag the trace's root span and the slow-query-log entry, so
	// concurrent queries' records stay attributable; zero values leave
	// the records untagged.
	SessionID string
	// QueryID is the per-session monotonic query counter (see SessionID).
	QueryID uint64
}

// Original returns the unoptimized §4.1 configuration.
func Original() Options { return Options{} }

// Optimized returns the fully optimized configuration. Cost-based
// planning is on by default; it only takes effect on queries whose
// tables all carry fresh statistics.
func Optimized() Options {
	return Options{Fused: true, BottomUp: true, NestPushdown: true, PositiveRewrite: true,
		UseStats: true, CostBased: true}
}

// ErrUnsupported reports a query shape the nested relational planner does
// not handle (the reference evaluator still does).
var ErrUnsupported = errors.New("core: unsupported query shape")

func unsupportedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUnsupported, fmt.Sprintf(format, args...))
}

// Execute runs an analyzed query with the nested relational approach.
// The query runs under a per-query exec.ExecContext built from the
// options' governance knobs (Ctx/Timeout/MemoryBudget/Hooks); whatever
// the outcome — success, error, cancellation, panic-turned-error — the
// context is closed before returning, which cancels it and removes any
// spill files it created.
func Execute(q *sql.Query, opt Options) (*relation.Relation, error) {
	out, _, err := executeLogged(q, opt, nil)
	return out, err
}

// OpStat is one executed operator with its planned cardinality estimate
// (EXPLAIN ANALYZE's per-operator row).
type OpStat struct {
	Op  string  // operator label, e.g. "reduce T2 (lineitem)"
	Est float64 // estimated output rows; < 0 when no estimate was available
	Act int     // actual output rows
}

// ExecuteAnalyzed runs the query while recording, for every executed
// operator, its estimated and actual output cardinality, plus the
// query's resource accounting — the data behind EXPLAIN ANALYZE.
func ExecuteAnalyzed(q *sql.Query, opt Options) (*relation.Relation, []OpStat, exec.Stats, error) {
	var log []OpStat
	var st exec.Stats
	opt.Stats = &st
	out, _, err := executeLogged(q, opt, &log)
	return out, log, st, err
}

func executeLogged(q *sql.Query, opt Options, log *[]OpStat) (*relation.Relation, *planner, error) {
	p, err := newPlanner(q, opt)
	if err != nil {
		return nil, nil, err
	}
	// EXPLAIN ANALYZE and the slow-query log are both span consumers: when
	// the caller supplied no tracer, they get a private one.
	tr := opt.Tracer
	if tr == nil && (log != nil || opt.SlowLog != nil) {
		tr = obsv.NewTracer()
	}
	start := time.Now()
	if tr != nil && (opt.SessionID != "" || opt.QueryID != 0) {
		tr.Tag(opt.SessionID, opt.QueryID)
	}
	ec := exec.NewExecContext(opt.Ctx, exec.Limits{
		MemoryBudget: opt.MemoryBudget,
		Timeout:      opt.Timeout,
		TempDir:      opt.SpillDir,
		Hooks:        opt.Hooks,
		Tracer:       tr,
		MemPool:      opt.MemPool,
	})
	p.ec = ec
	if len(p.spillOps) > 0 {
		ec.PlanSpill(p.spillOps...)
	}
	out, err := p.run()
	st := ec.Stats()
	if opt.Stats != nil {
		*opt.Stats = st
	}
	if cerr := ec.Close(); err == nil {
		err = cerr
	}
	elapsed := time.Since(start)
	reg := obsv.Default()
	slow := opt.SlowLog != nil && elapsed >= opt.SlowQuery
	reg.NoteQuery(elapsed, err, slow)
	if tr != nil {
		rec := tr.Finish()
		reg.ObserveTrace(rec)
		feedEstimates(rec, reg)
		if log != nil {
			*log = planOpStats(rec)
		}
		if slow {
			entry := &obsv.SlowLogEntry{
				Time:       time.Now(),
				Query:      opt.Label,
				Session:    opt.SessionID,
				QueryID:    opt.QueryID,
				DurationMS: float64(elapsed) / float64(time.Millisecond),
				Plan:       p.explainString(),
				PeakBytes:  st.PeakBytes,
				Spills:     st.Spills,
				SpillBytes: st.SpillBytes,
				Trace:      rec,
			}
			if err != nil {
				entry.Error = err.Error()
			}
			_ = opt.SlowLog.Record(entry)
		}
	}
	return out, p, err
}

// Supported reports nil when the planner can evaluate q, or a wrapped
// ErrUnsupported explaining why not.
func Supported(q *sql.Query) error {
	_, err := newPlanner(q, Options{})
	return err
}
