// Package catalog manages named base tables, their constraints and their
// indexes. The paper's engine model assumes every relation has a unique
// non-NULL primary key (used by the nested approach to recognise padding
// tuples), and the native baseline's plan choices depend on NOT NULL
// constraints and index availability — all of which live here.
//
// Concurrency model (snapshot isolation, single writer):
//
//   - A Catalog is a sequence of immutable Snapshots published through an
//     atomic pointer. Readers call Snapshot() (or any read method, which
//     reads the current snapshot) and never block, never lock.
//   - Every mutation — DML, DDL, constraint/index/statistics changes —
//     runs under one writer mutex, builds new *Table versions without
//     touching the published ones (copy-on-write), and commits by
//     publishing a new Snapshot with a bumped epoch.
//   - A *Table obtained from a snapshot is immutable: queries planned
//     against it (including its statistics, so cost decisions are stable
//     per query) read a frozen version of the data no matter what
//     writers commit meanwhile.
//
// The Table-level mutating methods (SetNotNull, CreateIndex, Analyze, …)
// exist for single-threaded catalog construction — generators and
// loaders that build a catalog before sharing it. Once a catalog is
// visible to concurrent readers, use the Catalog-level methods (or a Tx),
// which are copy-on-write.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"nra/internal/colstore"
	"nra/internal/index"
	"nra/internal/relation"
	"nra/internal/stats"
	"nra/internal/value"
	"nra/internal/vec"
)

// Table is a base relation plus metadata. Tables published in a snapshot
// are immutable; mutating methods are reserved for single-threaded
// catalog construction (see the package comment).
type Table struct {
	Name    string
	Rel     *relation.Relation
	PK      string          // primary key column (qualified name)
	NotNull map[string]bool // columns with a NOT NULL constraint (PK implied)

	// indexes holds the built indexes by canonical column-list key;
	// lazyIdx holds column lists that are declared (they appear in
	// Indexes() and persist with the manifest) but not built yet —
	// trusted loads declare every index and Index() builds on first
	// lookup, so cold start never pays for indexes no query uses.
	// idxMu guards both maps: lazy promotion mutates a published
	// version, which is otherwise immutable.
	idxMu      sync.Mutex
	indexes    map[string]*index.Index // by canonical column-list key
	lazyIdx    map[string][]string     // declared, unbuilt; canonical cols by key
	stats      *stats.Table            // last ANALYZE result; nil = never analyzed
	statsStale bool                    // set by DML; stale stats are treated as absent

	// vecCols memoizes the columnar form of this version's columns for
	// the vectorized scan — the table's column-store representation,
	// built lazily per column on first vectorized access. A version's
	// rows are immutable (mutations are copy-on-write and produce a
	// successor version, which starts cold), so entries never go stale.
	// vecMu guards both maps: snapshots are shared across queries.
	// segDecs holds the per-column segment decoders of a segment-backed
	// version; they fill group-at-a-time, so pruned scans never decode
	// the bytes of skipped row groups.
	vecMu   sync.Mutex
	vecCols map[int]*vec.Vector
	segDecs map[int]*colstore.ColumnDecoder

	// segs is the columnar segment this version was loaded from, when
	// the durable format is columnar (internal/colstore via csvio).
	// VecColumn then decodes columns from segment bytes instead of
	// re-converting the row store, and the planner prunes row groups
	// against the segment's zone maps. Mutations drop it: a successor
	// version's rows no longer match the segment (the next checkpoint
	// writes a fresh one).
	segs *colstore.Reader
}

// AttachSegments installs the columnar segment reader backing this
// table version's rows. The caller (csvio.LoadFS) guarantees the
// segment holds exactly Rel's rows in Rel's column order.
func (t *Table) AttachSegments(r *colstore.Reader) { t.segs = r }

// Segments returns the columnar segment reader backing this version,
// or nil when the version is not segment-backed (CSV-loaded tables and
// post-mutation versions).
func (t *Table) Segments() *colstore.Reader { return t.segs }

// VecColumn returns the memoized columnar form of column c — decoded
// from the backing segment when one is attached, converted from the row
// store otherwise — converting and caching it on first access.
func (t *Table) VecColumn(c int) *vec.Vector {
	return t.VecColumnPruned(c, nil)
}

// VecColumnPruned is VecColumn for a scan that will skip the row
// groups marked in skip (the zone-map prune set; see
// colstore.PruneGroups): on a segment-backed version only the
// remaining groups are decoded, and the skipped regions of the shared
// vector stay undecoded until some later scan needs them. The scan
// must not read rows of skipped groups — exec.VecReduce's SegPrune
// windows guarantee that. skip is ignored for row-store tables.
func (t *Table) VecColumnPruned(c int, skip []bool) *vec.Vector {
	t.vecMu.Lock()
	defer t.vecMu.Unlock()
	if v, ok := t.vecCols[c]; ok {
		return v
	}
	if t.segs != nil {
		if v := t.segColumn(c, skip); v != nil {
			return v
		}
		// The segment passed its checksums at load, so a decode error
		// here means a bug, not corruption; fall back to the row store
		// rather than fail the query.
	}
	if t.vecCols == nil {
		t.vecCols = make(map[int]*vec.Vector)
	}
	v := vec.ColumnVector(t.Rel.Tuples, c)
	t.vecCols[c] = v
	return v
}

// segColumn ensures column c's decoder exists and its non-skipped
// groups are decoded, returning the shared vector (nil on decode
// error). Caller holds vecMu; a group decodes at most once per table
// version, and the mutex hand-off publishes the decoded region to
// every scan that asks for it afterwards.
func (t *Table) segColumn(c int, skip []bool) *vec.Vector {
	dec, ok := t.segDecs[c]
	if !ok {
		var err error
		if dec, err = t.segs.NewColumnDecoder(c); err != nil {
			return nil
		}
		if t.segDecs == nil {
			t.segDecs = make(map[int]*colstore.ColumnDecoder)
		}
		t.segDecs[c] = dec
	}
	if err := dec.EnsureGroups(skip); err != nil {
		return nil
	}
	return dec.Vector()
}

// New returns an empty catalog at epoch 1.
func New() *Catalog {
	c := &Catalog{}
	c.snap.Store(&Snapshot{tables: make(map[string]*Table), epoch: 1})
	return c
}

// newTable validates rel against the primary-key contract and builds a
// fresh Table version (PK index included, mirroring §5.1's automatic
// primary-key B+-trees). When trusted is set — loaders replaying a
// checksummed committed save, whose bytes provably round-trip a catalog
// that already enforced the contract — the uniqueness scan is skipped
// and the PK index is declared lazily instead of built, so cold start
// pays for neither.
func newTable(name string, rel *relation.Relation, pk string, trusted bool) (*Table, error) {
	if rel.Schema.Depth() != 0 {
		return nil, fmt.Errorf("catalog: base table %q must be flat", name)
	}
	pkIdx := rel.Schema.ColIndex(pk)
	if pkIdx < 0 {
		return nil, fmt.Errorf("catalog: table %q has no column %q for primary key", name, pk)
	}
	pkName := rel.Schema.Cols[pkIdx].Name
	if !trusted {
		seen := make(map[string]struct{}, rel.Len())
		for i, t := range rel.Tuples {
			v := t.Atoms[pkIdx]
			if v.IsNull() {
				return nil, fmt.Errorf("catalog: table %q row %d: NULL primary key", name, i)
			}
			k := string(v.AppendKey(nil))
			if _, dup := seen[k]; dup {
				return nil, fmt.Errorf("catalog: table %q row %d: duplicate primary key %s", name, i, v)
			}
			seen[k] = struct{}{}
		}
	}
	t := &Table{
		Name:    name,
		Rel:     rel,
		PK:      pkName,
		NotNull: map[string]bool{pkName: true},
		indexes: make(map[string]*index.Index),
	}
	if trusted {
		t.lazyIdx = map[string][]string{indexKey([]string{pkName}): {pkName}}
		return t, nil
	}
	if _, err := t.CreateIndex(pkName); err != nil {
		return nil, err
	}
	return t, nil
}

// Create registers a table. The primary key column must exist, be unique
// and contain no NULLs; this is validated eagerly because both query
// processing approaches rely on it.
func (c *Catalog) Create(name string, rel *relation.Relation, pk string) (*Table, error) {
	tx := c.Begin()
	defer tx.Rollback()
	t, err := tx.Create(name, rel, pk)
	if err != nil {
		return nil, err
	}
	tx.Commit()
	return t, nil
}

// CreateLoaded registers a table from a loader replaying a checksummed
// committed save — see Tx.CreateLoaded for the trust contract: no
// primary-key re-validation, PK index declared lazily.
func (c *Catalog) CreateLoaded(name string, rel *relation.Relation, pk string) (*Table, error) {
	tx := c.Begin()
	defer tx.Rollback()
	t, err := tx.CreateLoaded(name, rel, pk)
	if err != nil {
		return nil, err
	}
	tx.Commit()
	return t, nil
}

// Drop removes a table; it errors when the table does not exist.
func (c *Catalog) Drop(name string) error {
	tx := c.Begin()
	defer tx.Rollback()
	if err := tx.Drop(name); err != nil {
		return err
	}
	tx.Commit()
	return nil
}

// Table looks up a table in the current snapshot.
func (c *Catalog) Table(name string) (*Table, error) { return c.Snapshot().Table(name) }

// Names returns the sorted table names of the current snapshot.
func (c *Catalog) Names() []string { return c.Snapshot().Names() }

// SetNotNull declares a NOT NULL constraint on a column; the native
// baseline's planner uses it to decide whether an antijoin is legal for
// ALL / NOT IN (§5.2). It verifies the data actually satisfies it.
// Construction-time only; a live catalog uses Catalog.SetNotNull.
func (t *Table) SetNotNull(col string) error {
	i := t.Rel.Schema.ColIndex(col)
	if i < 0 {
		return fmt.Errorf("catalog: table %q has no column %q", t.Name, col)
	}
	for row, tp := range t.Rel.Tuples {
		if tp.Atoms[i].IsNull() {
			return fmt.Errorf("catalog: table %q row %d violates NOT NULL(%s)", t.Name, row, col)
		}
	}
	t.NotNull[t.Rel.Schema.Cols[i].Name] = true
	return nil
}

// SetNotNull is the copy-on-write form of Table.SetNotNull: it commits a
// new version of the named table carrying the constraint.
func (c *Catalog) SetNotNull(table, col string) error {
	return c.mutateTable(table, func(t *Table) error { return t.SetNotNull(col) })
}

// IsNotNull reports whether col carries a NOT NULL constraint.
func (t *Table) IsNotNull(col string) bool {
	i := t.Rel.Schema.ColIndex(col)
	if i < 0 {
		return false
	}
	return t.NotNull[t.Rel.Schema.Cols[i].Name]
}

// Analyze collects fresh statistics over the table's current rows (the
// ANALYZE pass) and clears any staleness mark. Construction-time only;
// a live catalog uses Catalog.AnalyzeTable / Catalog.AnalyzeAll.
func (t *Table) Analyze() *stats.Table {
	if t.segs != nil {
		// Segment-backed versions seed the min/max/null pass from the
		// zone maps collected at write time; the result is identical to
		// an unseeded Collect, just cheaper.
		t.stats = stats.CollectSeeded(t.Rel, t.segs.Seeds())
	} else {
		t.stats = stats.Collect(t.Rel)
	}
	t.statsStale = false
	return t.stats
}

// Stats returns the table's statistics, or nil when none were collected
// or a DML mutation made them stale — the planner must treat stale
// statistics as absent rather than silently plan with wrong row counts.
func (t *Table) Stats() *stats.Table {
	if t.statsStale {
		return nil
	}
	return t.stats
}

// StatsStale reports whether statistics exist but were invalidated by a
// mutation since the last ANALYZE.
func (t *Table) StatsStale() bool { return t.stats != nil && t.statsStale }

// SetStats installs previously collected statistics (a persisted ANALYZE
// result reloaded by csvio) as fresh. Construction-time only.
func (t *Table) SetStats(s *stats.Table) {
	t.stats = s
	t.statsStale = false
}

// AnalyzeTable commits a new version of the named table with freshly
// collected statistics; readers holding earlier snapshots keep planning
// from the statistics their snapshot was published with.
func (c *Catalog) AnalyzeTable(name string) error {
	return c.mutateTable(name, func(t *Table) error { t.Analyze(); return nil })
}

// AnalyzeAll collects statistics for every table and commits them as one
// new snapshot.
func (c *Catalog) AnalyzeAll() {
	tx := c.Begin()
	defer tx.Rollback()
	for _, name := range tx.base.Names() {
		t, err := tx.Table(name)
		if err != nil {
			continue
		}
		nt := t.clone()
		nt.Analyze()
		tx.staged[name] = nt
	}
	tx.Commit()
}

// CreateIndexOn commits a new version of the named table carrying an
// index on the given columns (a no-op version bump when it exists).
func (c *Catalog) CreateIndexOn(table string, cols ...string) error {
	return c.mutateTable(table, func(t *Table) error {
		_, err := t.CreateIndex(cols...)
		return err
	})
}

// DropIndexOn commits a new version of the named table without the index
// on the given columns.
func (c *Catalog) DropIndexOn(table string, cols ...string) error {
	return c.mutateTable(table, func(t *Table) error { t.DropIndex(cols...); return nil })
}

// Insert appends rows to the named table as one committed batch,
// returning the number inserted. On any validation error nothing is
// committed.
func (c *Catalog) Insert(table string, rows [][]value.Value) (int, error) {
	tx := c.Begin()
	defer tx.Rollback()
	n, err := tx.Insert(table, rows)
	if err != nil {
		return 0, err
	}
	tx.Commit()
	return n, nil
}

// Delete removes the named table's rows whose primary key is in keys,
// committing the survivors as a new version; missing keys are not an
// error.
func (c *Catalog) Delete(table string, keys []value.Value) (int, error) {
	tx := c.Begin()
	defer tx.Rollback()
	n, err := tx.Delete(table, keys)
	if err != nil {
		return 0, err
	}
	tx.Commit()
	return n, nil
}

// Update rewrites the named columns of the rows identified by keys
// (keys[i]'s row gets vals[i], parallel to cols) and commits the result
// as a new version. On error nothing is committed.
func (c *Catalog) Update(table string, keys []value.Value, cols []string, vals [][]value.Value) (int, error) {
	tx := c.Begin()
	defer tx.Rollback()
	n, err := tx.Update(table, keys, cols, vals)
	if err != nil {
		return 0, err
	}
	tx.Commit()
	return n, nil
}

// mutateTable clones the named table, applies fn to the clone, and
// commits it as a new snapshot.
func (c *Catalog) mutateTable(name string, fn func(*Table) error) error {
	tx := c.Begin()
	defer tx.Rollback()
	t, err := tx.Table(name)
	if err != nil {
		return err
	}
	nt := t.clone()
	if err := fn(nt); err != nil {
		return err
	}
	tx.staged[name] = nt
	tx.Commit()
	return nil
}

// CreateIndex builds (or returns an existing) index on the given columns,
// in order. Single- and multi-column indexes are supported, mirroring the
// paper's combined index on (l_partkey, l_suppkey) versus the single
// indexes it compares against. Construction-time only; a live catalog
// uses Catalog.CreateIndexOn.
func (t *Table) CreateIndex(cols ...string) (*index.Index, error) {
	canonical := make([]string, len(cols))
	for i, c := range cols {
		j := t.Rel.Schema.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("catalog: table %q has no column %q", t.Name, c)
		}
		canonical[i] = t.Rel.Schema.Cols[j].Name
	}
	key := indexKey(canonical)
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	return t.buildIndex(key, canonical)
}

// DeclareIndex registers an index on the given columns without building
// it: the column list persists with the manifest and the index is built
// on the first Index lookup that asks for it. Loaders use it so cold
// start never pays for indexes no query uses.
func (t *Table) DeclareIndex(cols ...string) error {
	canonical := make([]string, len(cols))
	for i, c := range cols {
		j := t.Rel.Schema.ColIndex(c)
		if j < 0 {
			return fmt.Errorf("catalog: table %q has no column %q", t.Name, c)
		}
		canonical[i] = t.Rel.Schema.Cols[j].Name
	}
	key := indexKey(canonical)
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if _, ok := t.indexes[key]; ok {
		return nil
	}
	if t.lazyIdx == nil {
		t.lazyIdx = make(map[string][]string)
	}
	t.lazyIdx[key] = canonical
	return nil
}

// buildIndex returns the built index for key, promoting a lazy
// declaration or building a fresh index over canonical. Caller holds
// idxMu.
func (t *Table) buildIndex(key string, canonical []string) (*index.Index, error) {
	if idx, ok := t.indexes[key]; ok {
		return idx, nil
	}
	idx, err := index.Build(t.Rel, canonical)
	if err != nil {
		return nil, err
	}
	t.indexes[key] = idx
	delete(t.lazyIdx, key)
	return idx, nil
}

// Index returns the index on exactly the given column list, or nil.
// A declared-but-unbuilt index (trusted loads defer building) is built
// here on first lookup; the promotion is synchronized, so snapshots
// stay safe to share across queries.
func (t *Table) Index(cols ...string) *index.Index {
	canonical := make([]string, len(cols))
	for i, c := range cols {
		j := t.Rel.Schema.ColIndex(c)
		if j < 0 {
			return nil
		}
		canonical[i] = t.Rel.Schema.Cols[j].Name
	}
	key := indexKey(canonical)
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if idx, ok := t.indexes[key]; ok {
		return idx
	}
	if spec, ok := t.lazyIdx[key]; ok {
		idx, err := t.buildIndex(key, spec)
		if err != nil {
			return nil
		}
		return idx
	}
	return nil
}

// DropIndex removes the index on the given column list, if present. The
// experiments use this to study the native approach's index sensitivity.
// Construction-time only; a live catalog uses Catalog.DropIndexOn.
func (t *Table) DropIndex(cols ...string) {
	canonical := make([]string, len(cols))
	for i, c := range cols {
		j := t.Rel.Schema.ColIndex(c)
		if j < 0 {
			return
		}
		canonical[i] = t.Rel.Schema.Cols[j].Name
	}
	key := indexKey(canonical)
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	delete(t.indexes, key)
	delete(t.lazyIdx, key)
}

// Indexes lists the column sets of all indexes — built and declared —
// sorted.
func (t *Table) Indexes() [][]string {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	var keys []string
	byKey := make(map[string][]string, len(t.indexes)+len(t.lazyIdx))
	for k, v := range t.indexes {
		keys = append(keys, k)
		byKey[k] = v.Columns()
	}
	for k, cols := range t.lazyIdx {
		if _, ok := byKey[k]; ok {
			continue
		}
		keys = append(keys, k)
		byKey[k] = cols
	}
	sort.Strings(keys)
	out := make([][]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}

func indexKey(cols []string) string {
	key := ""
	for _, c := range cols {
		key += c + "\x00"
	}
	return key
}
