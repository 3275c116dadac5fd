package service

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nra"
	"nra/internal/obsv"
)

// Config parameterises a Server. The zero value of every knob picks a
// sensible default; only DB is required.
type Config struct {
	// DB is the shared database every session executes against.
	DB *nra.DB
	// MaxInFlight bounds concurrently executing statements
	// (default 2×GOMAXPROCS).
	MaxInFlight int
	// QueueDepth bounds statements waiting for admission beyond
	// MaxInFlight; further arrivals are rejected immediately
	// (default 4×MaxInFlight).
	QueueDepth int
	// QueueTimeout rejects a queued statement that waited this long
	// (default 5s; negative = wait as long as its context allows).
	QueueTimeout time.Duration
	// MemPoolBytes is the shared memory pool charged by every
	// statement's operator working state (0 = unbounded).
	MemPoolBytes int64
	// PlanCacheSize is the shared plan cache capacity in statements
	// (default 256; negative disables the cache).
	PlanCacheSize int
	// DrainGrace is how long Drain waits for in-flight statements to
	// finish naturally before cancelling the stragglers (default 500ms).
	DrainGrace time.Duration
	// CheckpointDir, when non-empty, makes Drain checkpoint the database
	// (full save + WAL truncation) into this directory after quiescing.
	CheckpointDir string
	// Registry receives the server's gauges — plan cache, admission,
	// memory pool, session counts — for /debug/metrics (nil = none).
	Registry *obsv.Registry
}

// Server is the concurrent query service: it owns the shared plan
// cache, the admission gate, the memory pool, and the
// session table, and exposes them over an HTTP API (Handler) and a
// line protocol (ServeLine). One Server is safe for any number of
// concurrent sessions; create it with New.
type Server struct {
	cfg   Config
	db    *nra.DB
	cache *nra.PlanCache
	pool  *nra.MemPool
	adm   *admission

	mu       sync.Mutex
	sessions map[string]*Session
	cancels  map[uint64]context.CancelFunc
	conns    map[net.Conn]struct{}

	seq      atomic.Uint64 // session IDs
	ticket   atomic.Uint64 // in-flight cancellation registry keys
	draining atomic.Bool
	wg       sync.WaitGroup // in-flight statements

	waterfallMu sync.Mutex // serialises traced runs (one LastTrace slot)
}

// New builds a Server over cfg.DB, installs the shared plan cache on
// it, and registers the service gauges with cfg.Registry.
func New(cfg Config) *Server {
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4 * cfg.MaxInFlight
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = 5 * time.Second
	}
	if cfg.QueueTimeout < 0 {
		cfg.QueueTimeout = 0
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 500 * time.Millisecond
	}
	s := &Server{
		cfg:      cfg,
		db:       cfg.DB,
		adm:      newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueTimeout),
		sessions: make(map[string]*Session),
		cancels:  make(map[uint64]context.CancelFunc),
		conns:    make(map[net.Conn]struct{}),
	}
	if cfg.PlanCacheSize >= 0 {
		size := cfg.PlanCacheSize
		if size == 0 {
			size = 256
		}
		s.cache = nra.NewPlanCache(size)
		s.db.SetPlanCache(s.cache)
	} else {
		s.db.SetPlanCache(nil) // cache disabled — unwire any previous one
	}
	if cfg.MemPoolBytes > 0 {
		s.pool = nra.NewMemPool(cfg.MemPoolBytes)
	}
	s.registerGauges(cfg.Registry)
	return s
}

// registerGauges publishes the server's live counters as registry
// gauges, polled at metrics-snapshot time.
func (s *Server) registerGauges(r *obsv.Registry) {
	if r == nil {
		return
	}
	r.RegisterGauge("plancache_hits", func() int64 { return int64(s.cache.Stats().Hits) })
	r.RegisterGauge("plancache_misses", func() int64 { return int64(s.cache.Stats().Misses) })
	r.RegisterGauge("plancache_invalidations", func() int64 { return int64(s.cache.Stats().Invalidations) })
	r.RegisterGauge("plancache_entries", func() int64 { return int64(s.cache.Stats().Entries) })
	r.RegisterGauge("admission_inflight", s.adm.inflight.Load)
	r.RegisterGauge("admission_queued", s.adm.queued.Load)
	r.RegisterGauge("admission_rejected", s.adm.rejected.Load)
	r.RegisterGauge("service_sessions", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.sessions))
	})
	r.RegisterGauge("mempool_used_bytes", s.pool.Used)
	r.RegisterGauge("mempool_peak_bytes", s.pool.Peak)
	r.RegisterGauge("mempool_denials", s.pool.Denials)
}

// OpenSession creates a session with default options.
func (s *Server) OpenSession() *Session {
	sess := &Session{srv: s, id: fmt.Sprintf("s%03d", s.seq.Add(1))}
	s.mu.Lock()
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	return sess
}

// Session resolves a session by ID, nil when unknown or closed.
func (s *Server) Session(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// CloseSession removes a session, discarding its prepared statements
// and pinned snapshot. In-flight statements finish normally.
func (s *Server) CloseSession(sess *Session) {
	if sess == nil {
		return
	}
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	sess.mu.Lock()
	sess.closed = true
	sess.prepared = nil
	sess.pinned = nil
	sess.mu.Unlock()
}

// Stats is a point-in-time snapshot of the server's shared machinery.
type Stats struct {
	// Sessions is the number of open sessions.
	Sessions int
	// Inflight is the number of currently executing statements.
	Inflight int64
	// Queued is the number of statements waiting for admission.
	Queued int64
	// Admitted counts statements admitted since startup.
	Admitted int64
	// Rejected counts statements rejected by the admission gate.
	Rejected int64
	// PlanCache holds the shared plan cache's counters.
	PlanCache nra.PlanCacheStats
	// PoolCap, PoolUsed, PoolPeak and PoolDenials describe the shared
	// memory pool (all zero when no pool is configured).
	PoolCap, PoolUsed, PoolPeak, PoolDenials int64
	// Epoch is the current catalog epoch.
	Epoch uint64
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return Stats{
		Sessions:    n,
		Inflight:    s.adm.inflight.Load(),
		Queued:      s.adm.queued.Load(),
		Admitted:    s.adm.admitted.Load(),
		Rejected:    s.adm.rejected.Load(),
		PlanCache:   s.cache.Stats(),
		PoolCap:     s.pool.Cap(),
		PoolUsed:    s.pool.Used(),
		PoolPeak:    s.pool.Peak(),
		PoolDenials: s.pool.Denials(),
		Epoch:       s.db.Snapshot().Epoch(),
	}
}

// String renders the stats for the line protocol's \stats output.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions:      %d\n", st.Sessions)
	fmt.Fprintf(&b, "in flight:     %d (queued %d, admitted %d, rejected %d)\n",
		st.Inflight, st.Queued, st.Admitted, st.Rejected)
	fmt.Fprintf(&b, "plan cache:    %d entries, %d hits, %d misses, %d invalidations, %d evictions\n",
		st.PlanCache.Entries, st.PlanCache.Hits, st.PlanCache.Misses,
		st.PlanCache.Invalidations, st.PlanCache.Evictions)
	if st.PoolCap > 0 {
		fmt.Fprintf(&b, "memory pool:   %d/%d bytes used, peak %d, denials %d\n",
			st.PoolUsed, st.PoolCap, st.PoolPeak, st.PoolDenials)
	}
	fmt.Fprintf(&b, "catalog epoch: %d\n", st.Epoch)
	return b.String()
}

// Do executes one request on behalf of a session: it passes the
// admission gate, builds the statement's strategy from the session
// defaults plus the server's pools, runs it, and shapes the result for
// the wire. Control operations (hello, ping, set, pin, unpin, prepare,
// close_stmt, tables, stats) bypass admission — they do no query work.
func (s *Server) Do(ctx context.Context, sess *Session, req Request) Response {
	switch req.Op {
	case OpHello:
		return Response{OK: true, Session: sess.id, Epoch: s.db.Snapshot().Epoch()}
	case OpPing:
		return Response{OK: true, Session: sess.id}
	case OpSet:
		if err := sess.set(req.Key, req.Value); err != nil {
			return fail(sess.id, 0, err)
		}
		return Response{OK: true, Session: sess.id, Text: sess.describe()}
	case OpPin:
		return Response{OK: true, Session: sess.id, Epoch: sess.pin()}
	case OpUnpin:
		sess.unpin()
		return Response{OK: true, Session: sess.id, Epoch: s.db.Snapshot().Epoch()}
	case OpPrepare:
		if err := sess.prepare(req.Name, req.SQL); err != nil {
			return fail(sess.id, 0, err)
		}
		return Response{OK: true, Session: sess.id}
	case OpCloseStmt:
		if err := sess.closeStmt(req.Name); err != nil {
			return fail(sess.id, 0, err)
		}
		return Response{OK: true, Session: sess.id}
	case OpTables:
		return s.doTables(sess)
	case OpStats:
		return s.doStats(sess, req.Table)
	case OpQuery, OpExec, OpExplain, OpExplainAnalyze, OpWaterfall, OpRun, OpAnalyze:
		return s.doStatement(ctx, sess, req)
	case OpQuit:
		s.CloseSession(sess)
		return Response{OK: true, Session: sess.id}
	}
	return fail(sess.id, 0, sessionErrorf("unknown op %q", req.Op))
}

// doTables lists tables with row counts.
func (s *Server) doTables(sess *Session) Response {
	names := s.db.Tables()
	sort.Strings(names)
	infos := make([]TableInfo, 0, len(names))
	for _, n := range names {
		rows, err := s.db.NumRows(n)
		if err != nil {
			continue // dropped concurrently
		}
		infos = append(infos, TableInfo{Name: n, Rows: rows})
	}
	return Response{OK: true, Session: sess.id, Tables: infos, Epoch: s.db.Snapshot().Epoch()}
}

// doStats renders one table's optimizer statistics, or the server's own
// counters when no table is named.
func (s *Server) doStats(sess *Session, table string) Response {
	if table == "" {
		return Response{OK: true, Session: sess.id, Text: s.Stats().String()}
	}
	out, err := s.db.StatsSummary(table)
	if err != nil {
		return fail(sess.id, 0, err)
	}
	return Response{OK: true, Session: sess.id, Text: out}
}

// doStatement is the admitted execution path shared by every operation
// that touches query machinery.
func (s *Server) doStatement(ctx context.Context, sess *Session, req Request) Response {
	qid := sess.nextQueryID()
	if s.draining.Load() {
		return fail(sess.id, qid, ErrDraining)
	}
	release, err := s.adm.acquire(ctx)
	if err != nil {
		return fail(sess.id, qid, err)
	}
	defer release()

	// Register for drain-time cancellation. The registration window also
	// closes the startup race: a statement admitted just as Drain flips
	// the flag is still cancellable.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ticket := s.ticket.Add(1)
	s.mu.Lock()
	s.cancels[ticket] = cancel
	s.mu.Unlock()
	s.wg.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.cancels, ticket)
		s.mu.Unlock()
		s.wg.Done()
	}()
	// Re-check after registering: a statement that raced past the first
	// check is now visible to Drain's cancelAll and wg.Wait, so either
	// it bails here or drain cancels/awaits it — never neither.
	if s.draining.Load() {
		return fail(sess.id, qid, ErrDraining)
	}

	start := time.Now()
	resp := s.execute(ctx, sess, req, sess.strategy(qid))
	resp.Session, resp.QueryID = sess.id, qid
	resp.ElapsedUS = time.Since(start).Microseconds()
	return resp
}

// execute dispatches one admitted statement.
func (s *Server) execute(ctx context.Context, sess *Session, req Request, strategy nra.Strategy) Response {
	switch req.Op {
	case OpQuery:
		var res *nra.Result
		var err error
		if snap := sess.snap(); snap != nil {
			res, err = snap.QueryWithContext(ctx, req.SQL, strategy)
		} else {
			res, err = s.db.QueryWithContext(ctx, req.SQL, strategy)
		}
		if err != nil {
			return Response{Error: toWireError(err)}
		}
		return renderResult(res, s.epochFor(sess))
	case OpRun:
		st, err := sess.stmt(req.Name)
		if err != nil {
			return Response{Error: toWireError(err)}
		}
		res, err := st.RunWithContext(ctx, strategy)
		if err != nil {
			return Response{Error: toWireError(err)}
		}
		return renderResult(res, s.epochFor(sess))
	case OpExec:
		n, err := s.db.Exec(req.SQL)
		if err != nil {
			return Response{Error: toWireError(err)}
		}
		return Response{OK: true, RowsAffected: n, Epoch: s.db.Snapshot().Epoch()}
	case OpAnalyze:
		var err error
		if req.Table != "" {
			err = s.db.Analyze(strings.Fields(req.Table)...)
		} else {
			err = s.db.Analyze()
		}
		if err != nil {
			return Response{Error: toWireError(err)}
		}
		return Response{OK: true, Epoch: s.db.Snapshot().Epoch()}
	case OpExplain:
		out, err := s.db.Explain(req.SQL, strategy)
		if err != nil {
			return Response{Error: toWireError(err)}
		}
		return Response{OK: true, Text: out}
	case OpExplainAnalyze:
		out, err := s.db.ExplainAnalyze(req.SQL, strategy)
		if err != nil {
			return Response{Error: toWireError(err)}
		}
		return Response{OK: true, Text: out}
	case OpWaterfall:
		// LastTrace is a single DB-wide slot; serialise traced runs so a
		// concurrent query cannot clobber the waterfall between the run
		// and the read.
		s.waterfallMu.Lock()
		defer s.waterfallMu.Unlock()
		if _, err := s.db.QueryWithContext(ctx, req.SQL, strategy.WithTracing(true)); err != nil {
			return Response{Error: toWireError(err)}
		}
		tr := s.db.LastTrace()
		if tr == nil {
			return Response{Error: toWireError(sessionErrorf("no trace captured"))}
		}
		return Response{OK: true, Text: tr.Waterfall()}
	}
	return Response{Error: toWireError(sessionErrorf("unknown op %q", req.Op))}
}

// epochFor reports the epoch a session's reads observe: the pinned
// snapshot's, or the current one.
func (s *Server) epochFor(sess *Session) uint64 {
	if snap := sess.snap(); snap != nil {
		return snap.Epoch()
	}
	return s.db.Snapshot().Epoch()
}

// renderResult shapes a query result for the wire, sorting rows
// canonically so concurrent clients can compare outputs byte-for-byte.
func renderResult(res *nra.Result, epoch uint64) Response {
	res.Sort()
	rows := res.Rows()
	if rows == nil {
		rows = [][]any{}
	}
	return Response{OK: true, Columns: res.Columns(), Rows: rows, Epoch: epoch}
}

// Drain shuts the server down gracefully: stop admitting statements,
// give in-flight ones DrainGrace to finish, cancel the stragglers
// through their execution contexts, wait for the last to unwind, close
// line-protocol connections, and (when CheckpointDir is set) checkpoint
// the database so the WAL is truncated at a clean snapshot. It returns
// ctx.Err() if ctx ends before the in-flight statements unwind.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		s.cancelAll()
	case <-ctx.Done():
		s.cancelAll()
	}
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}

	s.closeConns()
	if s.cfg.CheckpointDir != "" {
		if err := s.db.Save(s.cfg.CheckpointDir); err != nil {
			return fmt.Errorf("service: drain checkpoint: %w", err)
		}
	}
	return nil
}

// cancelAll cancels every registered in-flight statement.
func (s *Server) cancelAll() {
	s.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(s.cancels))
	for _, c := range s.cancels {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// trackConn registers a line-protocol connection for drain-time close.
func (s *Server) trackConn(c net.Conn) {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

// untrackConn forgets a closed connection.
func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// closeConns closes all tracked line-protocol connections.
func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
