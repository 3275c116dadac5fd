package nra

import (
	"container/list"
	"sync"

	"nra/internal/catalog"
	"nra/internal/exec"
	"nra/internal/sql"
)

// PlanCache is a shared LRU cache of analyzed statements, keyed on the
// statement's *normalized* AST rendering and holding only bindings for
// the newest snapshot epoch it has seen. Analysis — parsing, block
// decomposition, name resolution — is the dominant fixed cost of short
// queries, and epoch tracking makes invalidation exact: any committed
// mutation (DML, DDL, ANALYZE) bumps the epoch, so a cached binding is
// reused if and only if the catalog version it resolved against is
// still current. The first lookup or insert at a newer epoch drops
// every entry, so a cached binding never pins a superseded
// copy-on-write table version; a lookup at an older epoch (a session
// pinned to an earlier snapshot) misses and caches nothing. Textual
// variants that parse to the same AST ("select  X from t" vs
// "SELECT x FROM t") share one entry.
//
// One PlanCache is safe for concurrent use and is meant to be shared by
// every session of a serving process (see DB.SetPlanCache and
// internal/service). Entries hold analyzed statements, which are
// immutable during execution, so concurrent sessions may execute the
// same cached binding simultaneously.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *planEntry
	entries map[string]*list.Element
	epoch   uint64 // the newest epoch seen; every entry is bound against it

	hits, misses, invalidations, evictions uint64
}

// planEntry is one cached binding: the normalized key and the analyzed
// statement.
type planEntry struct {
	key string
	st  *sql.Statement
}

// NewPlanCache returns a cache holding at most capacity analyzed
// statements (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{cap: capacity, lru: list.New(), entries: make(map[string]*list.Element)}
}

// PlanCacheStats is a point-in-time snapshot of a cache's counters.
type PlanCacheStats struct {
	// Hits counts lookups answered from the cache at the current epoch.
	Hits uint64
	// Misses counts lookups with no entry for the normalized AST,
	// including every lookup at an epoch older than the cache's.
	Misses uint64
	// Invalidations counts lookups at an epoch newer than the cache's
	// that found it non-empty: each dropped every cached statement (all
	// bound against the superseded epoch — stale after DML/DDL/ANALYZE)
	// and re-analyzed. Every lookup is exactly one hit, miss or
	// invalidation.
	Invalidations uint64
	// Evictions counts entries dropped by LRU capacity pressure.
	Evictions uint64
	// Entries is the current number of cached statements.
	Entries int
}

// Stats snapshots the cache's counters.
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Entries:       c.lru.Len(),
	}
}

// advance moves the cache to epoch when it is newer than the cache's,
// dropping every entry, and reports how many it dropped and whether
// epoch is now the cache's (false: epoch is older). Callers hold c.mu.
func (c *PlanCache) advance(epoch uint64) (dropped int, current bool) {
	if epoch < c.epoch {
		return 0, false
	}
	if epoch > c.epoch {
		dropped = c.lru.Len()
		c.lru.Init()
		clear(c.entries)
		c.epoch = epoch
	}
	return dropped, true
}

// lookup returns the cached statement for (key, epoch), recording a hit,
// miss, or invalidation.
func (c *PlanCache) lookup(key string, epoch uint64) (*sql.Statement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped, current := c.advance(epoch)
	el, ok := c.entries[key]
	switch {
	case dropped > 0:
		c.invalidations++
		return nil, false
	case !current || !ok:
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry).st, true
}

// insert caches a freshly analyzed statement, evicting from the LRU tail
// when over capacity. A statement bound against an epoch older than the
// cache's is not cached.
func (c *PlanCache) insert(key string, epoch uint64, st *sql.Statement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, current := c.advance(epoch); !current {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value = &planEntry{key: key, st: st}
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&planEntry{key: key, st: st})
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*planEntry).key)
		c.evictions++
	}
}

// SetPlanCache installs a shared plan cache on the database: Query,
// Snap.Query and prepared statements consult it before re-analyzing.
// pc may be shared by any number of the database's sessions, but not
// across databases: it tracks one database's epochs. nil removes the
// cache. Not synchronised with in-flight
// queries — install at session setup.
func (db *DB) SetPlanCache(pc *PlanCache) { db.planCache = pc }

// analyzeCached binds src against snap, consulting the plan cache when
// one is installed. The cache key is the parse tree's normalized
// rendering, so it never caches an unparseable statement, and two
// textual variants of one query share an entry.
func analyzeCached(pc *PlanCache, snap *catalog.Snapshot, src string) (*sql.Statement, error) {
	if pc == nil {
		return analyzeOn(snap, src)
	}
	parsed, err := sql.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	key := parsed.String()
	if st, ok := pc.lookup(key, snap.Epoch()); ok {
		return st, nil
	}
	st, err := sql.AnalyzeStatement(parsed, snap)
	if err != nil {
		return nil, err
	}
	pc.insert(key, snap.Epoch(), st)
	return st, nil
}

// MemPool is a shared, byte-accounted memory budget pooled across
// concurrent queries: every strategy wired to it (WithMemoryPool)
// charges its operators' working-state reservations against the pool,
// so N in-flight queries together stay within one configured bound
// instead of each assuming the whole machine. Reservations the pool
// refuses degrade the operator to its spill path with byte-identical
// results — the same graceful degradation a per-query budget triggers.
// A nil *MemPool imposes no bound.
type MemPool struct {
	p *exec.MemPool
}

// NewMemPool returns a pool with the given capacity in bytes (≤ 0 =
// unbounded, returning a pool that never refuses).
func NewMemPool(bytes int64) *MemPool { return &MemPool{p: exec.NewMemPool(bytes)} }

// Cap returns the pool capacity in bytes (0 = unbounded).
func (p *MemPool) Cap() int64 {
	if p == nil {
		return 0
	}
	return p.p.Cap()
}

// Used returns the bytes currently reserved by in-flight queries.
func (p *MemPool) Used() int64 {
	if p == nil {
		return 0
	}
	return p.p.Used()
}

// Peak returns the high-water mark of concurrently reserved bytes.
func (p *MemPool) Peak() int64 {
	if p == nil {
		return 0
	}
	return p.p.Peak()
}

// Denials returns how many reservations the pool refused — each one a
// spill decision induced by aggregate memory pressure.
func (p *MemPool) Denials() int64 {
	if p == nil {
		return 0
	}
	return p.p.Denials()
}

// WithMemoryPool returns a copy of a nested strategy whose queries
// charge working state against the shared pool (see MemPool) in
// addition to any per-query WithMemoryBudget bound. Native/Reference
// are not budget-governed and are returned unchanged. A nil pool removes
// the wiring.
func (s Strategy) WithMemoryPool(p *MemPool) Strategy {
	if s.kind == kindNative || s.kind == kindReference {
		return s
	}
	if p == nil {
		s.opts.MemPool = nil
	} else {
		s.opts.MemPool = p.p
	}
	return s
}

// WithQueryTag returns a copy of a nested strategy whose queries are
// attributed to the given serving-layer session ID and per-session
// query counter: the tag lands on the trace's root span and on
// slow-query-log entries, so concurrent interleavings stay attributable
// (see docs/SERVICE.md). Native/Reference are not instrumented and are
// returned unchanged.
func (s Strategy) WithQueryTag(session string, queryID uint64) Strategy {
	if s.kind == kindNative || s.kind == kindReference {
		return s
	}
	s.opts.SessionID = session
	s.opts.QueryID = queryID
	return s
}
