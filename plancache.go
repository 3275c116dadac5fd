package nra

import (
	"container/list"
	"sync"

	"nra/internal/catalog"
	"nra/internal/exec"
	"nra/internal/sql"
)

// PlanCache is a shared LRU cache of analyzed statements, keyed on the
// statement's *normalized* AST rendering plus the snapshot epoch it was
// bound against. Analysis — parsing, block decomposition, name
// resolution — is the dominant fixed cost of short queries, and the
// epoch key makes invalidation exact: any committed mutation (DML, DDL,
// ANALYZE) bumps the epoch, so a cached binding is reused if and only if
// the catalog version it resolved against is still current. Textual
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

	hits, misses, invalidations, evictions uint64
}

// planEntry is one cached binding: the normalized key, the epoch it was
// analyzed against, and the analyzed statement.
type planEntry struct {
	key   string
	epoch uint64
	st    *sql.Statement
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
	// Misses counts lookups with no entry for the normalized AST.
	Misses uint64
	// Invalidations counts lookups that found an entry bound against an
	// older epoch — stale after DML/DDL/ANALYZE — which was discarded
	// and re-analyzed.
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

// lookup returns the cached statement for (key, epoch), recording a hit,
// miss, or invalidation. A stale entry is removed so the follow-up
// insert replaces it.
func (c *PlanCache) lookup(key string, epoch uint64) (*sql.Statement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.epoch != epoch {
		c.invalidations++
		c.lru.Remove(el)
		delete(c.entries, key)
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return e.st, true
}

// insert caches a freshly analyzed statement, evicting from the LRU tail
// when over capacity.
func (c *PlanCache) insert(key string, epoch uint64, st *sql.Statement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = &planEntry{key: key, epoch: epoch, st: st}
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&planEntry{key: key, epoch: epoch, st: st})
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*planEntry).key)
		c.evictions++
	}
}

// SetPlanCache installs a shared plan cache on the database: Query,
// Snap.Query, prepared statements and DML target selection all consult
// it before re-analyzing. pc may be shared across any number of DBs and
// sessions; nil removes the cache. Not synchronised with in-flight
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
