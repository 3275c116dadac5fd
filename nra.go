// Package nra is a SQL query processor built around the nested relational
// approach to subquery evaluation of Cao & Badia, "A Nested Relational
// Approach to Processing SQL Subqueries" (SIGMOD 2005).
//
// It evaluates SELECT-FROM-WHERE queries with arbitrarily nested
// non-aggregate subqueries — EXISTS, NOT EXISTS, IN, NOT IN, θ SOME/ANY
// and θ ALL, correlated to any enclosing block — plus scalar aggregate
// subqueries (θ (SELECT MAX/MIN/SUM/AVG/COUNT ...)) and aggregate-only
// select lists, all with full SQL NULL (three-valued-logic) semantics,
// under four interchangeable execution strategies:
//
//   - NestedOptimized (the default): the paper's approach with all §4.2
//     optimizations — hash outer joins, fused single-pass nest + linking
//     selection, fully fused chains for linear queries, bottom-up
//     evaluation of linear correlation, nest push-down, and positive-
//     operator rewriting. Needs no indexes.
//   - NestedOriginal: the unoptimized Algorithm 1 of §4.1.
//   - Native: the commercial-DBMS baseline the paper compares against
//     ("System A"): semijoin/antijoin pipelines where legal, index-driven
//     nested iteration otherwise.
//   - Reference: a direct tuple-iteration evaluator; slow but obviously
//     correct, and the only strategy accepting non-conjunctive subquery
//     placements (e.g. subqueries under OR).
//
// Quick start:
//
//	db := nra.Open()
//	db.MustCreateTable("emp", []string{"id", "name", "dept", "salary"}, "id",
//		[]any{1, "ada", 10, 120}, []any{2, "bob", 10, 95})
//	res, err := db.Query(`select name from emp e where e.salary >= all
//		(select e2.salary from emp e2 where e2.dept = e.dept)`)
//	fmt.Print(res)
package nra

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"nra/internal/algebra"
	"nra/internal/catalog"
	"nra/internal/core"
	"nra/internal/csvio"
	"nra/internal/naive"
	"nra/internal/native"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/sql"
	"nra/internal/tpch"
	"nra/internal/vfs"
	"nra/internal/wal"
)

// DB is a database: a catalog of tables plus the query engine, and —
// for sessions opened with OpenDirDurable — a durable directory with a
// write-ahead log.
//
// Concurrency: queries and DML may run concurrently from any number of
// goroutines. Every query executes against an immutable snapshot of the
// catalog taken when it starts; DML statements serialise on a single
// writer lock and commit by atomically publishing a new snapshot, so
// readers never block and never observe partial mutations. Use
// DB.Snapshot to pin several queries to one consistent version.
type DB struct {
	cat *catalog.Catalog

	// Durable-session state (nil/empty for in-memory databases): the
	// filesystem seam, the directory, and the open DML journal.
	fs      vfs.FS
	dir     string
	journal *wal.Log

	// lastTrace holds the span tree of the most recent traced query (see
	// Strategy.WithTracing and DB.LastTrace).
	lastTrace atomic.Pointer[QueryTrace]

	// slowLog / slowThreshold configure the structured slow-query log
	// (see SetSlowQueryLog); nil disables it.
	slowLog       *obsv.SlowLog
	slowThreshold time.Duration

	// planCache, when non-nil, caches analyzed statements keyed on
	// normalized AST, for the newest snapshot epoch (see SetPlanCache).
	planCache *PlanCache

	// format selects the on-disk table representation Save writes
	// (zero value = columnar segments; see SetStorageFormat).
	format csvio.Format
}

// Open returns an empty in-memory database.
func Open() *DB { return &DB{cat: catalog.New(), fs: vfs.OS} }

// OpenTPCH returns a database pre-loaded with a deterministic TPC-H
// instance (see TPCHConfig / TPCHScale).
func OpenTPCH(cfg TPCHConfig) (*DB, error) {
	cat, err := tpch.Generate(tpch.Config(cfg))
	if err != nil {
		return nil, err
	}
	return &DB{cat: cat, fs: vfs.OS}, nil
}

// TPCHConfig re-exports the generator configuration.
type TPCHConfig tpch.Config

// TPCHScale returns the TPC-H cardinalities at the given scale factor
// (sf = 1 is the paper's 1 GB database).
func TPCHScale(sf float64) TPCHConfig { return TPCHConfig(tpch.Scale(sf)) }

// CreateTable registers a new table. Column names must be unqualified;
// pk names the unique, non-NULL primary key column (every table needs
// one — the nested relational approach uses it to recognise padding).
// Row cells may be int, int64, float64, string, bool or nil (NULL).
func (db *DB) CreateTable(name string, cols []string, pk string, rows ...[]any) error {
	rel, err := relation.FromRows(name, cols, rows...)
	if err != nil {
		return err
	}
	_, err = db.cat.Create(name, rel, pk)
	return err
}

// MustCreateTable is CreateTable that panics on error.
func (db *DB) MustCreateTable(name string, cols []string, pk string, rows ...[]any) {
	if err := db.CreateTable(name, cols, pk, rows...); err != nil {
		panic(err)
	}
}

// SetNotNull declares a NOT NULL constraint (validated against the data).
// The native strategy needs it to unnest ALL / NOT IN into antijoins.
func (db *DB) SetNotNull(table, col string) error {
	return db.cat.SetNotNull(table, col)
}

// CreateIndex builds an index over the given columns (used only by the
// native strategy; the nested relational approach needs no indexes).
func (db *DB) CreateIndex(table string, cols ...string) error {
	return db.cat.CreateIndexOn(table, cols...)
}

// DropIndex removes an index.
func (db *DB) DropIndex(table string, cols ...string) error {
	return db.cat.DropIndexOn(table, cols...)
}

// Analyze collects optimizer statistics (row counts, NULL fractions,
// distinct-value estimates, min/max, equi-depth histograms) for the named
// tables — or for every table when none are named. Fresh statistics enable
// cost-based physical planning (see docs/OPTIMIZER.md); DML on a table
// marks its statistics stale, and the planner then falls back to the
// heuristic defaults until the table is analyzed again.
func (db *DB) Analyze(tables ...string) error {
	if len(tables) == 0 {
		db.cat.AnalyzeAll()
		return nil
	}
	for _, name := range tables {
		if err := db.cat.AnalyzeTable(name); err != nil {
			return err
		}
	}
	return nil
}

// StatsSummary renders a table's collected statistics (one line per
// column), or reports that none are available / they are stale.
func (db *DB) StatsSummary(table string) (string, error) {
	t, err := db.cat.Table(table)
	if err != nil {
		return "", err
	}
	if t.StatsStale() {
		return fmt.Sprintf("%s — statistics stale (run ANALYZE)\n", table), nil
	}
	ts := t.Stats()
	if ts == nil {
		return fmt.Sprintf("%s — no statistics (run ANALYZE)\n", table), nil
	}
	return ts.Summary(table), nil
}

// Save persists the whole database (data, schema, constraints, indexes)
// into a directory of per-table data files plus a JSON manifest. Tables
// are written as binary columnar segments by default (zone-mapped,
// checksummed; see docs/STORAGE.md) — SetStorageFormat("csv") selects
// portable CSV instead. The save is crash-consistent either way: data
// lands via temp file + fsync + atomic rename, and the manifest rename
// is the commit point — a crash mid-save leaves the previous save fully
// intact. Saving the durable session's own directory also checkpoints
// (truncates) the write-ahead log; the save holds the writer lock, so
// it captures an exact commit boundary.
func (db *DB) Save(dir string) error {
	tx := db.cat.Begin()
	defer tx.Rollback() // lock only; a save publishes no new snapshot
	snap := tx.Snapshot()
	if db.journal != nil && dir == db.dir {
		ckpt, err := csvio.SaveFSAs(db.fs, snap, dir, db.format)
		if err != nil {
			return err
		}
		return db.journal.Checkpoint(ckpt)
	}
	_, err := csvio.SaveFSAs(db.fsOrOS(), snap, dir, db.format)
	return err
}

// SetStorageFormat selects the representation Save writes table data
// in: "columnar" (the default — binary segment files with zone maps)
// or "csv" (portable text, for export and interop). Load auto-detects
// per table from the manifest, so a directory may mix formats and the
// setting never affects reads.
func (db *DB) SetStorageFormat(format string) error {
	f, err := csvio.ParseFormat(format)
	if err != nil {
		return err
	}
	db.format = f
	return nil
}

func (db *DB) fsOrOS() vfs.FS {
	if db.fs != nil {
		return db.fs
	}
	return vfs.OS
}

// OpenDir loads a database previously written by Save and replays any
// write-ahead log left by a durable session, so every acknowledged
// mutation is visible. The returned session is in-memory: its own
// mutations are not journaled (use OpenDirDurable for that).
func OpenDir(dir string) (*DB, error) {
	db, _, err := openDirFS(vfs.OS, dir)
	return db, err
}

// OpenDirDurable opens a saved database as a durable session: the
// directory's write-ahead log is replayed and kept open, every
// subsequent DML statement is journaled and fsynced before it commits,
// and Save(dir) checkpoints the journal. Close releases the journal.
// At most one durable session may use a directory at a time.
func OpenDirDurable(dir string) (*DB, error) {
	return openDirDurableFS(vfs.OS, dir)
}

func openDirDurableFS(fsys vfs.FS, dir string) (*DB, error) {
	db, ckpt, err := openDirFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	journal, err := wal.Open(fsys, filepath.Join(dir, csvio.WALName), ckpt, wal.SyncOnCommit)
	if err != nil {
		return nil, err
	}
	db.dir = dir
	db.journal = journal
	return db, nil
}

// openDirFS performs crash recovery: load the last committed save, then
// replay the journal's records for that checkpoint.
func openDirFS(fsys vfs.FS, dir string) (*DB, uint64, error) {
	cat, ckpt, err := csvio.LoadFS(fsys, dir)
	if err != nil {
		return nil, 0, err
	}
	recs, err := wal.Replay(fsys, filepath.Join(dir, csvio.WALName), ckpt)
	if err != nil {
		return nil, 0, err
	}
	if err := wal.Apply(cat, recs); err != nil {
		return nil, 0, err
	}
	return &DB{cat: cat, fs: fsys}, ckpt, nil
}

// Close releases a durable session's journal. In-memory databases need
// no Close. The database must be idle: in-flight Execs whose journal
// write races a Close may fail (and roll back) cleanly.
func (db *DB) Close() error {
	if db.journal == nil {
		return nil
	}
	err := db.journal.Close()
	db.journal = nil
	return err
}

// Tables lists the table names.
func (db *DB) Tables() []string { return db.cat.Names() }

// NumRows returns a table's cardinality.
func (db *DB) NumRows(table string) (int, error) {
	t, err := db.cat.Table(table)
	if err != nil {
		return 0, err
	}
	return t.Rel.Len(), nil
}

// Query parses, analyzes and executes a SQL statement with the default
// strategy (NestedOptimized, falling back to Reference for query shapes
// the planner does not decompose).
func (db *DB) Query(src string) (*Result, error) {
	return db.QueryWith(src, Auto)
}

// QueryWith executes with an explicit strategy. Statements may combine
// several SELECTs with UNION / INTERSECT / EXCEPT (each optionally ALL);
// every leaf SELECT runs under the chosen strategy.
func (db *DB) QueryWith(src string, s Strategy) (*Result, error) {
	return db.QueryWithContext(context.Background(), src, s)
}

// QueryContext is Query with a cancellation context: the query aborts
// with the context's error at the next operator boundary after ctx is
// cancelled, with spill files removed.
func (db *DB) QueryContext(ctx context.Context, src string) (*Result, error) {
	return db.QueryWithContext(ctx, src, Auto)
}

// QueryWithContext is QueryWith with a cancellation context.
func (db *DB) QueryWithContext(ctx context.Context, src string, s Strategy) (*Result, error) {
	st, err := db.analyzeStatement(src)
	if err != nil {
		return nil, err
	}
	rel, err := db.executeStatement(ctx, st, s, src)
	if err != nil {
		return nil, err
	}
	return &Result{rel: rel}, nil
}

// analyzeStatement binds src against the current snapshot, consulting
// the plan cache when one is installed. All the statement's table
// references resolve in one atomic snapshot read, so even multi-table
// statements see one consistent schema version.
func (db *DB) analyzeStatement(src string) (*sql.Statement, error) {
	return analyzeCached(db.planCache, db.cat.Snapshot(), src)
}

// analyzeOn parses and binds src against an explicit catalog view — the
// current catalog, a pinned snapshot, or a transaction's base snapshot.
func analyzeOn(res sql.Resolver, src string) (*sql.Statement, error) {
	parsed, err := sql.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	return sql.AnalyzeStatement(parsed, res)
}

func (db *DB) executeStatement(ctx context.Context, st *sql.Statement, s Strategy, label string) (*relation.Relation, error) {
	if st.Query != nil {
		return db.execute(ctx, st.Query, s, label)
	}
	l, err := db.executeStatement(ctx, st.L, s, label)
	if err != nil {
		return nil, err
	}
	r, err := db.executeStatement(ctx, st.R, s, label)
	if err != nil {
		return nil, err
	}
	switch st.Kind {
	case sql.Union:
		return algebra.Union(l, r)
	case sql.UnionAll:
		return algebra.UnionAll(l, r)
	case sql.Intersect:
		return algebra.Intersect(l, r)
	case sql.IntersectAll:
		return algebra.IntersectAll(l, r)
	case sql.Except:
		return algebra.Difference(l, r)
	case sql.ExceptAll:
		return algebra.ExceptAll(l, r)
	}
	return nil, fmt.Errorf("nra: unknown set operation")
}

// Explain describes the plan the given strategy would use. For set
// operations, each leaf SELECT is explained in order.
func (db *DB) Explain(src string, s Strategy) (string, error) {
	st, err := db.analyzeStatement(src)
	if err != nil {
		return "", err
	}
	leaves := st.Leaves()
	if len(leaves) > 1 {
		out := ""
		for i, q := range leaves {
			part, err := db.explainQuery(q, s)
			if err != nil {
				return "", err
			}
			out += fmt.Sprintf("-- leaf %d --\n%s", i+1, part)
		}
		return out, nil
	}
	return db.explainQuery(leaves[0], s)
}

func (db *DB) explainQuery(q *sql.Query, s Strategy) (string, error) {
	switch s = s.resolve(q); s.kind {
	case kindNative:
		ex, err := native.New(q)
		if err != nil {
			return "", err
		}
		return ex.Explain(), nil
	case kindReference:
		if s.opts.TwoValuedLogic {
			return "reference: direct nested-iteration over the AST (two-valued logic)\n", nil
		}
		return "reference: direct nested-iteration over the AST\n", nil
	default:
		return core.Explain(q, s.coreOptions())
	}
}

// ExplainAnalyze executes the query under a nested strategy and renders
// the EXPLAIN tree followed by a per-operator table joining the planner's
// cardinality estimates against the actual row counts, plus the run's
// memory/spill accounting. Only single-SELECT statements are supported;
// Native/Reference strategies are not instrumented.
func (db *DB) ExplainAnalyze(src string, s Strategy) (string, error) {
	if s.kind == kindNative || s.kind == kindReference {
		return "", fmt.Errorf("nra: EXPLAIN ANALYZE requires a nested strategy")
	}
	st, err := db.analyzeStatement(src)
	if err != nil {
		return "", err
	}
	if st.Query == nil {
		return "", fmt.Errorf("nra: EXPLAIN ANALYZE does not support set operations")
	}
	if s = s.resolve(st.Query); s.kind == kindReference {
		return "", fmt.Errorf("nra: EXPLAIN ANALYZE: %w (auto runs it on the uninstrumented reference evaluator)", core.ErrUnsupported)
	}
	return core.ExplainAnalyze(st.Query, s.coreOptions())
}

func (db *DB) execute(ctx context.Context, q *sql.Query, s Strategy, label string) (*relation.Relation, error) {
	if ctx != nil && ctx != context.Background() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	switch s = s.resolve(q); s.kind {
	case kindNative:
		return native.Execute(q)
	case kindReference:
		return db.referenceEval(q, s)
	default:
		opts := s.coreOptions()
		opts.Label = label
		if ctx != nil && ctx != context.Background() {
			opts.Ctx = ctx
		}
		if db.slowLog != nil {
			opts.SlowLog = db.slowLog
			opts.SlowQuery = db.slowThreshold
		}
		var tr *obsv.Tracer
		if s.trace {
			tr = obsv.NewTracer()
			opts.Tracer = tr
		}
		out, err := core.Execute(q, opts)
		if tr != nil {
			db.lastTrace.Store(&QueryTrace{rec: tr.Finish()})
		}
		return out, err
	}
}

// referenceEval runs the ground-truth tuple-iteration evaluator,
// honouring the strategy's two-valued-logic flag.
func (db *DB) referenceEval(q *sql.Query, s Strategy) (*relation.Relation, error) {
	if s.opts.TwoValuedLogic {
		return naive.EvaluateTwoValued(q)
	}
	return naive.Evaluate(q)
}

// QueryTrace is the finished span tree of one traced query (see
// Strategy.WithTracing and DB.LastTrace).
type QueryTrace struct {
	rec *obsv.SpanRecord
}

// Root returns the trace's root span record (kind "query"); its children
// are the executed operators in start order.
func (t *QueryTrace) Root() *obsv.SpanRecord {
	if t == nil {
		return nil
	}
	return t.rec
}

// Duration returns the traced query's wall time.
func (t *QueryTrace) Duration() time.Duration {
	if t == nil || t.rec == nil {
		return 0
	}
	return t.rec.Elapsed
}

// Waterfall renders the trace as an indented per-operator table with
// offset-scaled time bars (see internal/obsv.Waterfall).
func (t *QueryTrace) Waterfall() string {
	if t == nil {
		return obsv.Waterfall(nil)
	}
	return obsv.Waterfall(t.rec)
}

// JSON returns the trace serialised as the same JSON object the
// slow-query log embeds under "trace".
func (t *QueryTrace) JSON() (string, error) {
	if t == nil || t.rec == nil {
		return "", fmt.Errorf("nra: no trace recorded")
	}
	b, err := json.Marshal(t.rec)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// LastTrace returns the span tree of the most recent query executed with
// a tracing strategy (Strategy.WithTracing), or nil if no traced query
// has run. Concurrent queries each store their own trace; the last one
// to finish wins.
func (db *DB) LastTrace() *QueryTrace { return db.lastTrace.Load() }

// SetSlowQueryLog directs a structured slow-query log to w: every query
// whose wall time reaches threshold is recorded as one JSON line —
// query text, duration, executed plan, resource accounting, and the full
// span tree (decode with internal/obsv.DecodeSlowLog's schema, documented
// in docs/OBSERVABILITY.md). threshold 0 logs every query; w == nil
// disables the log. Only nested strategies are instrumented.
func (db *DB) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	if w == nil {
		db.slowLog = nil
		db.slowThreshold = 0
		return
	}
	db.slowLog = obsv.NewSlowLog(w)
	db.slowThreshold = threshold
}

// Strategy selects an execution engine.
type Strategy struct {
	kind  int
	opts  core.Options
	trace bool
}

// resolve returns the strategy that runs q. Auto runs the nested plan
// with its options, or Reference (keeping the two-valued-logic flag) when
// the planner cannot decompose q. Query execution, EXPLAIN and EXPLAIN
// ANALYZE all resolve through here, so they describe the same plan.
// Other strategies are returned unchanged.
func (s Strategy) resolve(q *sql.Query) Strategy {
	if s.kind != kindAuto {
		return s
	}
	if core.Supported(q) != nil {
		return Strategy{kind: kindReference, opts: core.Options{TwoValuedLogic: s.opts.TwoValuedLogic}}
	}
	s.kind = kindNested
	return s
}

const (
	kindAuto = iota
	kindNested
	kindNative
	kindReference
)

// The built-in strategies.
var (
	// Auto uses NestedOptimized, falling back to Reference when the
	// planner cannot decompose the query. The With* methods configure
	// its nested plan and keep the fallback.
	Auto = Strategy{kind: kindAuto, opts: core.Optimized()}
	// NestedOptimized is the paper's approach with every §4.2 optimization.
	NestedOptimized = Strategy{kind: kindNested, opts: core.Optimized()}
	// NestedOriginal is the unoptimized Algorithm 1.
	NestedOriginal = Strategy{kind: kindNested, opts: core.Original()}
	// Native is the "System A" baseline.
	Native = Strategy{kind: kindNative}
	// Reference is the ground-truth tuple-iteration evaluator.
	Reference = Strategy{kind: kindReference}
)

func (s Strategy) coreOptions() core.Options { return s.opts }

// WithMemoryBudget returns a copy of a nested strategy whose queries may
// hold at most bytes of operator working state (hash-join build sides,
// pre-nest sort copies) in memory; operators exceeding the budget degrade
// gracefully to spill files with byte-identical results (bytes ≤ 0 =
// unbounded). Native/Reference are not budget-governed and are returned
// unchanged. See docs/ROBUSTNESS.md.
func (s Strategy) WithMemoryBudget(bytes int64) Strategy {
	if s.kind == kindNative || s.kind == kindReference {
		return s
	}
	if bytes < 0 {
		bytes = 0
	}
	s.opts.MemoryBudget = bytes
	return s
}

// WithTimeout returns a copy of a nested strategy whose queries abort
// with context.DeadlineExceeded after d (d ≤ 0 = no deadline), observed
// at operator boundaries with spill files removed. Native/Reference are
// returned unchanged.
func (s Strategy) WithTimeout(d time.Duration) Strategy {
	if s.kind == kindNative || s.kind == kindReference {
		return s
	}
	if d < 0 {
		d = 0
	}
	s.opts.Timeout = d
	return s
}

// WithCostBased returns a copy of a nested strategy with cost-based
// physical planning switched on or off. When on (the NestedOptimized
// default) and every referenced table carries fresh statistics (see
// DB.Analyze), the planner uses estimated cardinalities to order linking
// edges, gate the §4.2.5 and §4.2.4 rewrites and pre-plan operator
// spills; without fresh statistics it behaves exactly like the heuristic
// planner. Native/Reference are returned unchanged.
func (s Strategy) WithCostBased(on bool) Strategy {
	if s.kind == kindNative || s.kind == kindReference {
		return s
	}
	s.opts.UseStats = on
	s.opts.CostBased = on
	return s
}

// WithVectorized returns a copy of a nested strategy executing the hot
// path batch-at-a-time (internal/vec): vectorized scan→filter→project
// block reduction, the batched-probe hash join, and the fused nest +
// linking selection driven by a typed sort and group-offset arrays.
// Results are byte-identical to the row operators — the row engine is
// the parity oracle, enforced by the differential fuzzer. The batch
// operators apply on the in-memory path only (no memory budget or pool,
// no fault hooks); operators whose shape has no batch kernel fall back
// to their row implementations per operator, visible in EXPLAIN as
// [batch] / [row: reason] annotations. Native/Reference are returned
// unchanged.
func (s Strategy) WithVectorized(on bool) Strategy {
	if s.kind == kindNative || s.kind == kindReference {
		return s
	}
	s.opts.Vectorized = on
	return s
}

// WithZoneMapPruning returns a copy of a nested strategy with row-group
// pruning against columnar segment zone maps switched on (the default)
// or off. Pruning applies only on the vectorized path over tables whose
// current version is segment-backed (databases opened from a columnar
// directory — see docs/STORAGE.md); it never changes results, so the
// off position exists for ablation and debugging. Native/Reference are
// returned unchanged.
func (s Strategy) WithZoneMapPruning(on bool) Strategy {
	if s.kind == kindNative || s.kind == kindReference {
		return s
	}
	s.opts.NoZoneMapPruning = !on
	return s
}

// WithTwoValuedLogic returns a copy of the strategy evaluating the query
// under two-valued logic: every comparison involving a NULL is FALSE
// rather than UNKNOWN, and NOT applies classically on top. Under 2VL the
// negative linking operators lose their NULL traps — x NOT IN S is
// exactly "no member of S equals x" — and the planner unnests NOT IN /
// NOT EXISTS / θ ALL leaves into plain antijoins. The one NULL the base
// data never held — SUM/AVG/MIN/MAX over an empty subquery — keeps its
// 3VL Unknown, so on NULL-free data 2VL and standard SQL 3VL agree
// exactly (fuzzer-checked). The flag applies to the nested
// strategies and Reference (which switches to the 2VL reference
// evaluator); Native models the commercial 3VL baseline and is returned
// unchanged. Auto keeps its Reference fallback, carrying the flag.
func (s Strategy) WithTwoValuedLogic(on bool) Strategy {
	if s.kind == kindNative {
		return s
	}
	s.opts.TwoValuedLogic = on
	return s
}

// WithTracing returns a copy of a nested strategy that records a
// per-operator span tree for every query it executes; read the most
// recent one with DB.LastTrace. Tracing never changes plan or physical-
// path decisions, and costs nothing when off. Auto's Reference fallback
// for undecomposable queries is not instrumented; Native/Reference are
// returned unchanged.
func (s Strategy) WithTracing(on bool) Strategy {
	if s.kind == kindNative || s.kind == kindReference {
		return s
	}
	s.trace = on
	return s
}

// Traced returns a copy of a nested strategy that writes a per-operator
// execution walkthrough (the paper's Temp1→Temp4 narration, with
// cardinalities) to w. Native/Reference strategies are returned
// unchanged.
func Traced(s Strategy, w io.Writer) Strategy {
	if s.kind == kindNative || s.kind == kindReference {
		return s
	}
	s.opts.Trace = w
	return s
}

// String names the strategy.
func (s Strategy) String() string {
	twoVL := ""
	if s.opts.TwoValuedLogic {
		twoVL = " (2VL)"
	}
	switch s.kind {
	case kindNative:
		return "native"
	case kindReference:
		return "reference" + twoVL
	default:
		name := "nested-optimized"
		base := s.opts
		// Physical, semantic-mode and observability knobs don't change
		// which paper strategy this is.
		base.MemoryBudget = 0
		base.MemPool = nil
		base.Timeout = 0
		base.Vectorized = false
		base.Tracer = nil
		base.SlowQuery = 0
		base.SlowLog = nil
		base.Label = ""
		base.SessionID = ""
		base.QueryID = 0
		base.TwoValuedLogic = false
		if s.kind == kindAuto {
			name = "auto"
		} else if base == core.Original() {
			name = "nested-original"
		} else if !base.CostBased {
			heuristic := core.Optimized()
			heuristic.UseStats = base.UseStats
			heuristic.CostBased = false
			if base == heuristic {
				name = "nested-optimized (heuristic)"
			}
		}
		if s.opts.Vectorized {
			name += " (vectorized)"
		}
		if s.opts.MemoryBudget > 0 {
			name = fmt.Sprintf("%s (mem %d)", name, s.opts.MemoryBudget)
		}
		if s.opts.Timeout > 0 {
			name = fmt.Sprintf("%s (timeout %s)", name, s.opts.Timeout)
		}
		return name + twoVL
	}
}
