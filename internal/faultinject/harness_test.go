package faultinject_test

// End-to-end robustness harness: runs the six linking operators
// (EXISTS / NOT EXISTS / IN / NOT IN / SOME / ALL) over NULL-bearing
// data at several memory budgets, asserting byte-identical results,
// provoked join and sort spills, bounded-time cancellation at every
// interception point, zero leaked goroutines and zero leftover spill
// files.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"nra/internal/catalog"
	"nra/internal/core"
	"nra/internal/exec"
	"nra/internal/faultinject"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/sql"
)

// testCatalog builds a parent/child catalog with NULLs in every linked,
// linking and correlated attribute — the shapes that exercise three-
// valued logic in each linking operator — sized so a 64 KB budget
// forces the pre-nest sort and hash-join builds to spill.
func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	null := func(frac float64, v any) any {
		if rng.Float64() < frac {
			return nil
		}
		return v
	}
	parents := make([][]any, 600)
	for i := range parents {
		parents[i] = []any{i, null(0.12, rng.Intn(50)), null(0.1, rng.Intn(9))}
	}
	children := make([][]any, 2400)
	for i := range children {
		children[i] = []any{i, null(0.05, rng.Intn(600)), null(0.15, rng.Intn(50)), null(0.1, rng.Intn(9))}
	}
	cat := catalog.New()
	p := relation.MustFromRows("parent", []string{"id", "v", "g"}, parents...)
	c := relation.MustFromRows("child", []string{"cid", "pid", "w", "h"}, children...)
	if _, err := cat.Create("parent", p, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Create("child", c, "cid"); err != nil {
		t.Fatal(err)
	}
	return cat
}

// linkingQueries is one correlated query per linking operator.
var linkingQueries = map[string]string{
	"exists":     "select parent.id, parent.v from parent where exists (select * from child where child.pid = parent.id and child.w > parent.v)",
	"not-exists": "select parent.id, parent.v from parent where not exists (select * from child where child.pid = parent.id and child.w > parent.v)",
	"in":         "select parent.id, parent.v from parent where parent.v in (select child.w from child where child.pid = parent.id)",
	"not-in":     "select parent.id, parent.v from parent where parent.v not in (select child.w from child where child.pid = parent.id)",
	"some":       "select parent.id, parent.v from parent where parent.v < some (select child.w from child where child.pid = parent.id and child.h = parent.g)",
	"all":        "select parent.id, parent.v from parent where parent.v >= all (select child.w from child where child.pid = parent.id and child.h = parent.g)",
}

func analyze(t testing.TB, cat *catalog.Catalog, src string) *sql.Query {
	t.Helper()
	sel, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	q, err := sql.Analyze(sel, cat)
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	return q
}

func mustEqualSeq(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if got.Tuples[i].Key() != want.Tuples[i].Key() {
			t.Fatalf("%s: tuple %d differs:\n got  %v\n want %v", label, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// mustLeaveNoFiles fails if dir is non-empty (leftover spill files).
func mustLeaveNoFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading spill dir: %v", err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("spill dir not cleaned: %v", names)
	}
}

// mustNotLeakGoroutines waits (with retries — runtime bookkeeping and
// context watchers unwind asynchronously) for the goroutine count to
// return to the baseline.
func mustNotLeakGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBudgetEquivalence runs every linking operator at budgets from
// 64 KB to unbounded, asserting results identical tuple-for-tuple to the
// ungoverned run — and that the 64 KB budget provably forces both the
// grace join and the external sort to spill.
func TestBudgetEquivalence(t *testing.T) {
	cat := testCatalog(t)
	budgets := []int64{0, 64 << 10, 1 << 20}
	for name, src := range linkingQueries {
		t.Run(name, func(t *testing.T) {
			q := analyze(t, cat, src)
			opt := core.Optimized()
			want, err := core.Execute(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range budgets {
				label := fmt.Sprintf("budget=%d", budget)
				dir := t.TempDir()
				var stats exec.Stats
				opt := core.Optimized()
				opt.MemoryBudget = budget
				opt.SpillDir = dir
				opt.Stats = &stats
				opt.Tracer = obsv.NewTracer()
				got, err := core.Execute(q, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				mustEqualSeq(t, label, got, want)
				mustLeaveNoFiles(t, dir)
				if budget == 64<<10 {
					if stats.SpillBytes <= 0 {
						t.Errorf("%s: no spill bytes written (%d spills)", label, stats.Spills)
					}
					root := opt.Tracer.Finish()
					for _, kind := range []string{obsv.KindGraceJoin, obsv.KindExtSort} {
						if root.Find(kind) == nil {
							t.Errorf("%s: no %s span — the budget did not force that spill", label, kind)
						}
					}
				}
				if budget > 0 && stats.PeakBytes > budget {
					t.Errorf("%s: peak working state %d exceeds budget", label, stats.PeakBytes)
				}
			}
		})
	}
}

// TestForcedSpillEquivalence drives every spillable operator down its
// spill path under an unbounded budget and asserts identical results.
func TestForcedSpillEquivalence(t *testing.T) {
	cat := testCatalog(t)
	for name, src := range linkingQueries {
		t.Run(name, func(t *testing.T) {
			q := analyze(t, cat, src)
			want, err := core.Execute(q, core.Optimized())
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			var stats exec.Stats
			opt := core.Optimized()
			opt.SpillDir = dir
			opt.Stats = &stats
			opt.Hooks = faultinject.New().ForceSpill(true).Hooks()
			got, err := core.Execute(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualSeq(t, "forced-spill", got, want)
			mustLeaveNoFiles(t, dir)
			if stats.Spills == 0 {
				t.Error("forced spill did not spill")
			}
		})
	}
}

// subtestName names the subtest striking pt. The "par=1/" segment is
// the executor's (only) degree; it keeps the subtest IDs identical to
// those of earlier versions of this harness, which also ran a 4-way
// partitioned configuration, so failure histories stay comparable.
func subtestName(pt faultinject.Point) string { return "par=1/" + pt.String() }

// census runs a query once with a recording injector and returns every
// interception point it passed through.
func census(t *testing.T, q *sql.Query, budget int64) []faultinject.Point {
	t.Helper()
	inj := faultinject.New().Record()
	opt := core.Optimized()
	opt.MemoryBudget = budget
	opt.SpillDir = t.TempDir()
	opt.Hooks = inj.Hooks()
	if _, err := core.Execute(q, opt); err != nil {
		t.Fatalf("census run: %v", err)
	}
	pts := inj.Points()
	if len(pts) == 0 {
		t.Fatal("census observed no interception points")
	}
	return pts
}

// TestInjectedFaultsAtEveryPoint strikes every distinct interception
// point the census observed — allocation failures, checkpoint errors,
// spill-I/O faults — and asserts the query fails fast with the injected
// sentinel wrapped in a *exec.QueryError, leaks no goroutines and
// leaves no spill files.
func TestInjectedFaultsAtEveryPoint(t *testing.T) {
	cat := testCatalog(t)
	q := analyze(t, cat, linkingQueries["not-in"])
	baseline := runtime.NumGoroutine()
	for _, pt := range census(t, q, 64<<10) {
		t.Run(subtestName(pt), func(t *testing.T) {
			dir := t.TempDir()
			opt := core.Optimized()
			opt.MemoryBudget = 64 << 10
			opt.SpillDir = dir
			opt.Hooks = faultinject.New().ArmAt(pt).Hooks()
			start := time.Now()
			_, err := core.Execute(q, opt)
			elapsed := time.Since(start)
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("err = %v, want injected fault", err)
			}
			var qe *exec.QueryError
			if !errors.As(err, &qe) || qe.Op == "" {
				t.Fatalf("err = %#v, want *exec.QueryError with operator path", err)
			}
			if elapsed > time.Second {
				t.Errorf("abort took %v, want < 1s", elapsed)
			}
			mustLeaveNoFiles(t, dir)
		})
	}
	mustNotLeakGoroutines(t, baseline)
}

// TestCancellationAtEveryCheckpoint cancels the query's context at each
// distinct checkpoint (mid-Next, mid-probe, mid-sort, mid-spill) and
// asserts a context.Canceled abort within 1s, no goroutine leaks and no
// leftover temp files.
func TestCancellationAtEveryCheckpoint(t *testing.T) {
	cat := testCatalog(t)
	q := analyze(t, cat, linkingQueries["all"])
	baseline := runtime.NumGoroutine()
	for _, pt := range census(t, q, 64<<10) {
		if pt.Kind != faultinject.KindCheck {
			continue
		}
		t.Run(subtestName(pt), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dir := t.TempDir()
			opt := core.Optimized()
			opt.MemoryBudget = 64 << 10
			opt.SpillDir = dir
			opt.Ctx = ctx
			opt.Hooks = faultinject.New().CancelAtCheck(pt.N, cancel).Hooks()
			start := time.Now()
			_, err := core.Execute(q, opt)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed > time.Second {
				t.Errorf("abort took %v, want < 1s", elapsed)
			}
			mustLeaveNoFiles(t, dir)
		})
	}
	mustNotLeakGoroutines(t, baseline)
}

// TestTimeout runs a query under an unreachably small deadline and
// asserts a prompt DeadlineExceeded with full cleanup.
func TestTimeout(t *testing.T) {
	cat := testCatalog(t)
	q := analyze(t, cat, linkingQueries["not-exists"])
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	opt := core.Optimized()
	opt.MemoryBudget = 64 << 10
	opt.SpillDir = dir
	opt.Timeout = time.Nanosecond
	start := time.Now()
	_, err := core.Execute(q, opt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("abort took %v, want < 1s", elapsed)
	}
	mustLeaveNoFiles(t, dir)
	mustNotLeakGoroutines(t, baseline)
}
