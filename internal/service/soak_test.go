package service

// Service soak: K concurrent sessions mix queries, DML, ANALYZE and
// prepared statements over one shared database through the full service
// path — admission, shared memory pool, plan cache.
// Pinned readers verify snapshot consistency byte-for-byte against a
// frozen oracle of their own epoch while writers commit continuously;
// drain must leave no goroutine behind; the plan cache must show hits
// AND epoch invalidations (DML/ANALYZE both bump the epoch). Run under
// -race in CI.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"nra"
	"nra/internal/obsv"
)

// soakQueries is the readers' statement mix: one query per linking
// operator over the parent/child schema.
var soakQueries = []string{
	"select parent.id, parent.v from parent where exists (select * from child where child.pid = parent.id and child.w > parent.v)",
	"select parent.id, parent.v from parent where not exists (select * from child where child.pid = parent.id and child.w > parent.v)",
	"select parent.id, parent.v from parent where parent.v in (select child.w from child where child.pid = parent.id)",
	"select parent.id, parent.v from parent where parent.v not in (select child.w from child where child.pid = parent.id)",
	"select parent.id, parent.v from parent where parent.v < some (select child.w from child where child.pid = parent.id and child.h = parent.g)",
	"select parent.id, parent.v from parent where parent.v >= all (select child.w from child where child.pid = parent.id and child.h = parent.g)",
}

// soakDB builds the shared database: parent/child with NULLs in every
// linked, linking and correlated attribute.
func soakDB(t testing.TB) *nra.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	null := func(frac float64, v any) any {
		if rng.Float64() < frac {
			return nil
		}
		return v
	}
	db := nra.Open()
	parents := make([][]any, 200)
	for i := range parents {
		parents[i] = []any{i, null(0.12, rng.Intn(50)), null(0.1, rng.Intn(9))}
	}
	children := make([][]any, 800)
	for i := range children {
		children[i] = []any{i, null(0.05, rng.Intn(200)), null(0.15, rng.Intn(50)), null(0.1, rng.Intn(9))}
	}
	db.MustCreateTable("parent", []string{"id", "v", "g"}, "id", parents...)
	db.MustCreateTable("child", []string{"cid", "pid", "w", "h"}, "cid", children...)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestServiceSoak(t *testing.T) {
	readers, writers, preparers, iters := 10, 3, 3, 6
	if testing.Short() {
		readers, writers, preparers, iters = 4, 1, 1, 3
	}

	db := soakDB(t)
	srv := New(Config{
		DB:           db,
		MaxInFlight:  8,
		QueueDepth:   256,
		QueueTimeout: 30 * time.Second,
		MemPoolBytes: 8 << 20,
		Registry:     obsv.NewRegistry(),
	})
	baseline := runtime.NumGoroutine()
	ctx := context.Background()

	var wg sync.WaitGroup
	errc := make(chan error, readers+writers+preparers)

	// Readers: pin a snapshot, freeze an oracle of the same epoch, and
	// demand byte-identical results for every query while writers commit.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := srv.OpenSession()
			defer srv.CloseSession(sess)
			if r%2 == 1 { // half the readers run the unoptimized §4.1 plan
				srv.Do(ctx, sess, Request{Op: OpSet, Key: "strategy", Value: "nested-original"})
			}
			for i := 0; i < iters; i++ {
				pin := srv.Do(ctx, sess, Request{Op: OpPin})
				if pin.Error != nil {
					errc <- fmt.Errorf("reader %d: pin: %s", r, pin.Error.Message)
					return
				}
				oracle, err := sess.snap().Frozen()
				if err != nil {
					errc <- fmt.Errorf("reader %d: freeze: %w", r, err)
					return
				}
				for qi, q := range soakQueries {
					resp := srv.Do(ctx, sess, Request{Op: OpQuery, SQL: q})
					if resp.Error != nil {
						errc <- fmt.Errorf("reader %d: query %d: %s", r, qi, resp.Error.Message)
						return
					}
					if resp.Epoch != pin.Epoch {
						errc <- fmt.Errorf("reader %d: query %d ran at epoch %d, pinned %d", r, qi, resp.Epoch, pin.Epoch)
						return
					}
					want, err := oracle.Query(q)
					if err != nil {
						errc <- fmt.Errorf("reader %d: oracle %d: %w", r, qi, err)
						return
					}
					want.Sort()
					if !sameRows(resp.Rows, want.Rows()) {
						errc <- fmt.Errorf("reader %d: query %d diverged from frozen oracle at epoch %d", r, qi, pin.Epoch)
						return
					}
				}
				srv.Do(ctx, sess, Request{Op: OpUnpin})
			}
		}(r)
	}

	// Writers: commit DML and ANALYZE continuously, each in a private
	// key range so statements never contend on validation.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := srv.OpenSession()
			defer srv.CloseSession(sess)
			base := 10_000 + w*1_000
			for i := 0; i < iters*4; i++ {
				stmts := []string{
					fmt.Sprintf("insert into child values (%d, %d, %d, %d)", base+i, i%200, i%50, i%9),
					fmt.Sprintf("update child set w = %d where cid = %d", (i+7)%50, base+i),
					fmt.Sprintf("delete from child where cid = %d", base+i),
				}
				for _, s := range stmts {
					if resp := srv.Do(ctx, sess, Request{Op: OpExec, SQL: s}); resp.Error != nil {
						errc <- fmt.Errorf("writer %d: %q: %s", w, s, resp.Error.Message)
						return
					}
				}
				if i%5 == 4 { // periodic ANALYZE invalidates cached plans
					if resp := srv.Do(ctx, sess, Request{Op: OpAnalyze, Table: "child"}); resp.Error != nil {
						errc <- fmt.Errorf("writer %d: analyze: %s", w, resp.Error.Message)
						return
					}
				}
			}
		}(w)
	}

	// Preparers: session-owned prepared statements re-bind across the
	// writers' epoch bumps through the shared plan cache.
	for p := 0; p < preparers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sess := srv.OpenSession()
			defer srv.CloseSession(sess)
			q := soakQueries[p%len(soakQueries)]
			if resp := srv.Do(ctx, sess, Request{Op: OpPrepare, Name: "s", SQL: q}); resp.Error != nil {
				errc <- fmt.Errorf("preparer %d: prepare: %s", p, resp.Error.Message)
				return
			}
			for i := 0; i < iters*3; i++ {
				resp := srv.Do(ctx, sess, Request{Op: OpRun, Name: "s"})
				if resp.Error != nil {
					errc <- fmt.Errorf("preparer %d: run %d: %s", p, i, resp.Error.Message)
					return
				}
			}
		}(p)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	st := srv.Stats()
	if st.PlanCache.Hits == 0 {
		t.Errorf("plan cache saw no hits under soak: %+v", st.PlanCache)
	}
	if st.PlanCache.Invalidations == 0 {
		t.Errorf("plan cache saw no epoch invalidations despite DML/ANALYZE: %+v", st.PlanCache)
	}
	if st.Admitted == 0 || st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("admission gate inconsistent after soak: %+v", st)
	}
	if st.PoolUsed != 0 {
		t.Errorf("memory pool leaked %d bytes after soak", st.PoolUsed)
	}

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if r := srv.Do(ctx, srv.OpenSession(), Request{Op: OpQuery, SQL: soakQueries[0]}); r.OK || r.Error.Kind != KindDraining {
		t.Fatalf("post-drain admission: %+v", r)
	}

	// Zero goroutine leaks after drain: everything the service spawned
	// has unwound.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak after drain: %d > baseline %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
