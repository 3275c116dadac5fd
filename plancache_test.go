package nra

import "testing"

// newCacheDB builds a small database with a plan cache installed.
func newCacheDB(t *testing.T, capacity int) (*DB, *PlanCache) {
	t.Helper()
	db := Open()
	db.MustCreateTable("emp", []string{"id", "dept", "salary"}, "id",
		[]any{1, 10, 120}, []any{2, 10, 95}, []any{3, 20, 80})
	pc := NewPlanCache(capacity)
	db.SetPlanCache(pc)
	return db, pc
}

func TestPlanCacheHitsAndNormalization(t *testing.T) {
	db, pc := newCacheDB(t, 8)
	const q = "select id from emp where salary > 90"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	// The same statement — and a textual variant parsing to the same
	// AST — must hit the cached analysis.
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT  id  FROM emp  WHERE salary > 90"); err != nil {
		t.Fatal(err)
	}
	st := pc.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
}

func TestPlanCacheInvalidationOnDMLAndAnalyze(t *testing.T) {
	db, pc := newCacheDB(t, 8)
	const q = "select id from emp where salary > 90"
	run := func() {
		t.Helper()
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	run() // miss
	db.MustExec("insert into emp values (4, 20, 200)")
	run() // stale epoch → invalidation + re-analysis
	if st := pc.Stats(); st.Invalidations != 1 {
		t.Fatalf("after DML: stats = %+v, want 1 invalidation", st)
	}
	if err := db.Analyze("emp"); err != nil {
		t.Fatal(err)
	}
	run() // ANALYZE bumps the epoch too
	if st := pc.Stats(); st.Invalidations != 2 {
		t.Fatalf("after ANALYZE: stats = %+v, want 2 invalidations", st)
	}
	run() // stable epoch → hit
	if st := pc.Stats(); st.Hits != 1 {
		t.Fatalf("after re-run: stats = %+v, want 1 hit", st)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	db, pc := newCacheDB(t, 2)
	for _, q := range []string{
		"select id from emp",
		"select dept from emp",
		"select salary from emp",
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := pc.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	// The evicted (oldest) statement misses again.
	if _, err := db.Query("select id from emp"); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Misses != 4 {
		t.Fatalf("stats = %+v, want 4 misses", st)
	}
}

func TestPlanCacheSharedWithPreparedAndSnapshots(t *testing.T) {
	db, pc := newCacheDB(t, 8)
	const q = "select id from emp where dept = 10"
	stmt, err := db.Prepare(q) // analysis populates the cache
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil { // same binding, same epoch → hit
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if _, err := snap.Query(q); err != nil { // pinned snapshot, same epoch → hit
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", st)
	}
}

// TestPlanCacheDropsSupersededEpochs pins that the cache holds bindings
// for the newest epoch only: a committed mutation followed by one query
// leaves exactly that query cached, so no stale binding keeps a
// superseded table version alive until LRU pressure evicts it.
func TestPlanCacheDropsSupersededEpochs(t *testing.T) {
	db, pc := newCacheDB(t, 8)
	for _, q := range []string{
		"select id from emp",
		"select dept from emp",
		"select salary from emp",
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	pinned := db.Snapshot()
	db.MustExec("insert into emp values (4, 20, 200)")
	if _, err := db.Query("select id from emp"); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Entries != 1 || st.Invalidations != 1 {
		t.Fatalf("after DML + one query: stats = %+v, want 1 entry / 1 invalidation", st)
	}
	// A session pinned to the older epoch misses and caches nothing.
	if _, err := pinned.Query("select dept from emp"); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Entries != 1 || st.Misses != 4 {
		t.Fatalf("after pinned query: stats = %+v, want 1 entry / 4 misses", st)
	}
}
