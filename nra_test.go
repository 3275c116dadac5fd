package nra

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func deptDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	db.MustCreateTable("emp", []string{"id", "name", "dept", "salary"}, "id",
		[]any{1, "ada", 10, 120},
		[]any{2, "bob", 10, 95},
		[]any{3, "cho", 20, 80},
		[]any{4, "dee", 20, nil},
		[]any{5, "eve", 30, 150},
	)
	db.MustCreateTable("dept", []string{"dno", "dname"}, "dno",
		[]any{10, "eng"}, []any{20, "ops"}, []any{30, "exec"}, []any{40, "empty"},
	)
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := deptDB(t)
	res, err := db.Query(`select name from emp e where e.salary >= all
		(select e2.salary from emp e2 where e2.dept = e.dept)`)
	if err != nil {
		t.Fatal(err)
	}
	// dept 10: ada (120 >= all {120,95}); dept 20: cho vs {80,null} → unknown
	// for both members? cho: 80>=80 true, 80>=null unknown → unknown → out.
	// dee: salary null → unknown → out. eve: 150>=150 → in.
	got := map[string]bool{}
	for _, row := range res.Rows() {
		got[row[0].(string)] = true
	}
	if len(got) != 2 || !got["ada"] || !got["eve"] {
		t.Fatalf("top earners wrong: %v\n%s", got, res)
	}
}

func TestStrategiesAgree(t *testing.T) {
	db := deptDB(t)
	queries := []string{
		"select name from emp where dept in (select dno from dept where dname <> 'ops')",
		"select dname from dept d where not exists (select * from emp where emp.dept = d.dno)",
		"select name from emp e where e.salary > all (select e2.salary from emp e2 where e2.dept = e.dept and e2.id <> e.id)",
		"select name from emp where salary not in (select salary from emp e2 where e2.dept = 20)",
	}
	for _, src := range queries {
		var results []*Result
		for _, s := range []Strategy{Auto, NestedOptimized, NestedOriginal, Native, Reference} {
			res, err := db.QueryWith(src, s)
			if err != nil {
				t.Fatalf("%s on %q: %v", s, src, err)
			}
			results = append(results, res)
		}
		for i := 1; i < len(results); i++ {
			if !results[0].Equal(results[i]) {
				t.Fatalf("strategy disagreement on %q:\n%s\nvs\n%s", src, results[0], results[i])
			}
		}
	}
}

func TestAutoFallsBackToReference(t *testing.T) {
	db := deptDB(t)
	// Subquery under OR: unsupported by the planner, handled by Reference.
	src := "select name from emp e where e.dept = 30 or exists (select * from dept where dno = e.dept and dname = 'eng')"
	res, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 { // ada, bob (eng) + eve (dept 30)
		t.Fatalf("fallback result wrong:\n%s", res)
	}
	if _, err := db.QueryWith(src, NestedOptimized); err == nil {
		t.Fatal("explicit nested strategy should reject the OR shape")
	}
}

func TestResultAccessors(t *testing.T) {
	db := deptDB(t)
	res, err := db.Query("select name, salary from emp where dept = 20 order by name")
	if err != nil {
		t.Fatal(err)
	}
	if cols := res.Columns(); len(cols) != 2 || cols[0] != "name" {
		t.Fatalf("columns: %v", cols)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != "cho" || rows[0][1].(int64) != 80 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[1][1] != nil {
		t.Fatalf("NULL salary should map to nil: %v", rows[1][1])
	}
	if !strings.Contains(res.String(), "cho") {
		t.Fatal("String rendering broken")
	}
}

func TestExplainAllStrategies(t *testing.T) {
	db := deptDB(t)
	src := "select name from emp e where e.salary > all (select e2.salary from emp e2 where e2.dept = e.dept)"
	for _, s := range []Strategy{NestedOptimized, NestedOriginal, Native, Reference} {
		out, err := db.Explain(src, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if out == "" {
			t.Fatalf("%s: empty explain", s)
		}
	}
	opt, _ := db.Explain(src, NestedOptimized)
	if !strings.Contains(opt, "§4.2") && !strings.Contains(opt, "fused") && !strings.Contains(opt, "bottom-up") {
		t.Fatalf("optimized explain should mention a §4.2 strategy:\n%s", opt)
	}
}

// TestExplainAutoMatchesExecution pins EXPLAIN under Auto to the plan
// Query runs: the optimized nested plan for a supported query, and the
// reference evaluator for one the planner cannot decompose.
func TestExplainAutoMatchesExecution(t *testing.T) {
	db := deptDB(t)
	corr := "select name from emp e where e.salary > all (select e2.salary from emp e2 where e2.dept = e.dept)"
	auto, err := db.Explain(corr, Auto)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := db.Explain(corr, NestedOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if auto != opt {
		t.Errorf("Explain(Auto) differs from the NestedOptimized plan Query runs:\nauto:\n%s\noptimized:\n%s", auto, opt)
	}
	if got, err := db.Explain(corr, Auto.WithTwoValuedLogic(true)); err != nil || !strings.Contains(got, "two-valued logic") {
		t.Errorf("Explain(Auto 2VL) = %q, %v; want the 2VL nested plan", got, err)
	}

	underOr := "select name from emp e where e.dept = 30 or exists (select * from dept d where d.dno = e.dept and d.dname = 'ops')"
	ref, err := db.Explain(underOr, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if want := "reference: direct nested-iteration over the AST\n"; ref != want {
		t.Errorf("Explain(Auto) on an undecomposable query = %q, want %q", ref, want)
	}
}

func TestErrorsSurface(t *testing.T) {
	db := deptDB(t)
	if _, err := db.Query("select nope from emp"); err == nil {
		t.Fatal("unknown column must error")
	}
	if _, err := db.Query("selec name from emp"); err == nil {
		t.Fatal("syntax error must surface")
	}
	if err := db.CreateTable("emp", []string{"x"}, "x", []any{1}); err == nil {
		t.Fatal("duplicate table must error")
	}
	if err := db.CreateTable("bad", []string{"x"}, "x", []any{nil}); err == nil {
		t.Fatal("NULL primary key must error")
	}
	if err := db.SetNotNull("emp", "salary"); err == nil {
		t.Fatal("NOT NULL over NULL data must error")
	}
	if err := db.SetNotNull("emp", "name"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("emp", "nope"); err == nil {
		t.Fatal("index on unknown column must error")
	}
}

func TestOpenTPCH(t *testing.T) {
	db, err := OpenTPCH(TPCHConfig{Parts: 30, Suppliers: 5, Customers: 10, Orders: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Tables()) != 8 {
		t.Fatalf("tables: %v", db.Tables())
	}
	res, err := db.Query(`select o_orderkey from orders
		where o_totalprice > all (select l_extendedprice from lineitem
			where l_orderkey = o_orderkey)`)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.QueryWith(`select o_orderkey from orders
		where o_totalprice > all (select l_extendedprice from lineitem
			where l_orderkey = o_orderkey)`, Reference)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ref) {
		t.Fatal("TPC-H query disagreement")
	}
	if n, _ := db.NumRows("orders"); n != 50 {
		t.Fatalf("orders rows: %d", n)
	}
}

func TestStrategyString(t *testing.T) {
	names := map[string]Strategy{
		"auto": Auto, "native": Native, "reference": Reference,
		"nested-original": NestedOriginal, "nested-optimized": NestedOptimized,
	}
	for want, s := range names {
		if s.String() != want {
			t.Errorf("Strategy.String() = %q, want %q", s.String(), want)
		}
	}
}

func TestTracedStrategy(t *testing.T) {
	db := deptDB(t)
	var buf strings.Builder
	s := Traced(NestedOriginal, &buf)
	if _, err := db.QueryWith(
		"select name from emp e where e.salary > all (select e2.salary from emp e2 where e2.dept = e.dept)", s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"σ_θ", "⟕", "υ"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	// Native strategies are returned unchanged (no trace output).
	if Traced(Native, &buf) != Native || Traced(Reference, &buf) != Reference {
		t.Fatal("Traced must not alter native/reference strategies")
	}
}

func TestLimitOffset(t *testing.T) {
	db := deptDB(t)
	for _, s := range []Strategy{NestedOptimized, NestedOriginal, Native, Reference} {
		res, err := db.QueryWith("select name from emp order by name limit 2", s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		rows := res.Rows()
		if len(rows) != 2 || rows[0][0] != "ada" || rows[1][0] != "bob" {
			t.Fatalf("%s: limit rows = %v", s, rows)
		}
		res2, err := db.QueryWith("select name from emp order by name limit 2 offset 3", s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		rows2 := res2.Rows()
		if len(rows2) != 2 || rows2[0][0] != "dee" || rows2[1][0] != "eve" {
			t.Fatalf("%s: offset rows = %v", s, rows2)
		}
	}
	// Offset past the end.
	res, err := db.Query("select name from emp order by name limit 10 offset 99")
	if err != nil || res.NumRows() != 0 {
		t.Fatalf("offset past end: %v rows=%d", err, res.NumRows())
	}
	// LIMIT 0.
	res, err = db.Query("select name from emp limit 0")
	if err != nil || res.NumRows() != 0 {
		t.Fatalf("limit 0: %v", err)
	}
	// LIMIT in a subquery is rejected.
	if _, err := db.Query("select name from emp where dept in (select dno from dept limit 1)"); err == nil {
		t.Fatal("subquery LIMIT must be rejected")
	}
	// Negative / junk operands are parse errors.
	if _, err := db.Query("select name from emp limit -1"); err == nil {
		t.Fatal("negative LIMIT must fail")
	}
	if _, err := db.Query("select name from emp limit x"); err == nil {
		t.Fatal("non-numeric LIMIT must fail")
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := deptDB(t)
	queries := []string{
		"select name from emp e where e.salary >= all (select e2.salary from emp e2 where e2.dept = e.dept)",
		"select dname from dept d where not exists (select * from emp where emp.dept = d.dno)",
		"select count(*) from emp where dept in (select dno from dept)",
		"select name from emp where salary not in (select salary from emp e2 where e2.dept = 20)",
	}
	strategies := []Strategy{NestedOptimized, NestedOriginal, Native, Reference}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				src := queries[(w+i)%len(queries)]
				s := strategies[(w*3+i)%len(strategies)]
				if _, err := db.QueryWith(src, s); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPreparedStatements(t *testing.T) {
	db := deptDB(t)
	stmt, err := db.Prepare("select name from emp e where e.salary >= all (select e2.salary from emp e2 where e2.dept = e.dept)")
	if err != nil {
		t.Fatal(err)
	}
	a, err := stmt.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := stmt.RunWith(Reference)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) || a.NumRows() != 2 {
		t.Fatalf("prepared runs disagree: %d vs %d", a.NumRows(), b.NumRows())
	}
	if stmt.SQL() == "" {
		t.Fatal("SQL() empty")
	}
	if _, err := db.Prepare("select nope from emp"); err == nil {
		t.Fatal("prepare must surface analysis errors")
	}
	// Concurrent reuse.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if res, err := stmt.Run(); err != nil || res.NumRows() != 2 {
					t.Errorf("concurrent prepared run: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSaveOpenDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := deptDB(t)
	if err := db.CreateIndex("emp", "dept"); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := "select name from emp e where e.salary >= all (select e2.salary from emp e2 where e2.dept = e.dept)"
	a, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("saved database answers differently")
	}
	if _, err := OpenDir(t.TempDir()); err == nil {
		t.Fatal("empty dir must error")
	}
}

func TestGovernedStrategies(t *testing.T) {
	db := deptDB(t)
	src := "select name from emp where salary not in (select salary from emp e2 where e2.dept = 20)"
	want, err := db.QueryWith(src, NestedOptimized)
	if err != nil {
		t.Fatal(err)
	}
	governed := []Strategy{
		NestedOptimized.WithMemoryBudget(64 << 10),
		NestedOptimized.WithMemoryBudget(1 << 20),
		NestedOptimized.WithTimeout(time.Minute),
		Auto.WithMemoryBudget(64 << 10), // Auto's nested plan, governed
	}
	for _, s := range governed {
		got, err := db.QueryWith(src, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: result differs under governance:\n%s\nvs\n%s", s, got, want)
		}
	}

	// Expired timeouts abort instead of answering.
	if _, err := db.QueryWith(src, NestedOptimized.WithTimeout(time.Nanosecond)); err == nil {
		t.Fatal("nanosecond timeout did not abort")
	}

	// Native/Reference have no governed operators and are unchanged.
	if Native.WithMemoryBudget(1) != Native || Reference.WithTimeout(time.Second) != Reference {
		t.Fatal("WithMemoryBudget/WithTimeout must not alter native/reference strategies")
	}

	// The knobs are physical: strategy names keep their base identity.
	s := NestedOptimized.WithMemoryBudget(4096).WithTimeout(time.Second)
	name := s.String()
	for _, frag := range []string{"nested-optimized", "mem 4096", "timeout 1s"} {
		if !strings.Contains(name, frag) {
			t.Fatalf("String() = %q, missing %q", name, frag)
		}
	}

	// EXPLAIN surfaces the budget and timeout behaviour.
	plan, err := db.Explain(src, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"memory budget: 4096 bytes", "timeout: 1s"} {
		if !strings.Contains(plan, frag) {
			t.Fatalf("explain missing %q:\n%s", frag, plan)
		}
	}
}
