package nra

// This file holds one testing.B benchmark per table/figure of the paper's
// evaluation (§5), each with one sub-benchmark per strategy series. The
// full parameter sweeps with measured block sizes — the actual figure
// regeneration — live in cmd/figures; these benchmarks time the largest
// sweep point of every figure so `go test -bench=.` exercises each
// experiment end to end.
//
//	Figure 4   → BenchmarkFig4Query1
//	(in-text)  → BenchmarkFig4Query1NotNull, BenchmarkProcQ1, BenchmarkProcQ2
//	Figure 5   → BenchmarkFig5Query2a
//	Figure 6   → BenchmarkFig6Query2b
//	Figure 7   → BenchmarkFig7Query3a_{a,b,c}
//	Figure 8   → BenchmarkFig8Query3b_{a,b,c}
//	Figure 9   → BenchmarkFig9Query3c_{a,b,c}
//	(DESIGN)   → BenchmarkAblation*

import (
	"sync"
	"testing"

	"nra/internal/bench"
	"nra/internal/core"
	"nra/internal/native"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/sql"
)

// benchSF keeps `go test -bench=.` under a couple of minutes on one core;
// cmd/figures defaults to the larger sf used for EXPERIMENTS.md.
const benchSF = 0.003

var (
	benchEnvOnce sync.Once
	benchEnv     *bench.Env
	benchEnvErr  error
)

func sharedEnv(b *testing.B) *bench.Env {
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = bench.NewEnv(bench.Config{SF: benchSF, Runs: 1, Seed: 42, Verify: false})
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// analyzeLargest parses and analyzes the largest sweep point of a figure.
func analyzeLargest(b *testing.B, figID string) *sql.Query {
	e := sharedEnv(b)
	sqls, err := e.QuerySQL(figID)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := sql.Parse(sqls[len(sqls)-1])
	if err != nil {
		b.Fatal(err)
	}
	q, err := sql.Analyze(sel, e.Cat)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func benchFigure(b *testing.B, figID string) {
	q := analyzeLargest(b, figID)
	strategies := []struct {
		name string
		run  func(*sql.Query) (*relation.Relation, error)
	}{
		{"native", native.Execute},
		{"nra-original", func(q *sql.Query) (*relation.Relation, error) {
			return core.Execute(q, core.Original())
		}},
		{"nra-optimized", func(q *sql.Query) (*relation.Relation, error) {
			return core.Execute(q, core.Optimized())
		}},
	}
	for _, st := range strategies {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.run(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Query1 regenerates Figure 4's largest point: Query 1, the
// one-level correlated >ALL query, without NOT NULL constraints (native
// must nested-iterate).
func BenchmarkFig4Query1(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig5Query2a regenerates Figure 5: mixed <ANY / NOT EXISTS on a
// linearly correlated two-level query (native's best case — a
// semijoin/antijoin pipeline).
func BenchmarkFig5Query2a(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6Query2b regenerates Figure 6: the same query with negative
// <ALL / NOT EXISTS (native degrades to nested iteration; the nested
// relational cost stays at Figure 5's level).
func BenchmarkFig6Query2b(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7Query3a_* regenerate Figure 7(a,b,c): Query 3a (mixed
// ALL/EXISTS, third block correlated to both outer blocks) under the
// three correlated-predicate variants.
func BenchmarkFig7Query3a_a(b *testing.B) { benchFigure(b, "fig7a") }
func BenchmarkFig7Query3a_b(b *testing.B) { benchFigure(b, "fig7b") }
func BenchmarkFig7Query3a_c(b *testing.B) { benchFigure(b, "fig7c") }

// BenchmarkFig8Query3b_* regenerate Figure 8(a,b,c): Query 3b (negative
// ALL/NOT EXISTS) — the native approach's worst case.
func BenchmarkFig8Query3b_a(b *testing.B) { benchFigure(b, "fig8a") }
func BenchmarkFig8Query3b_b(b *testing.B) { benchFigure(b, "fig8b") }
func BenchmarkFig8Query3b_c(b *testing.B) { benchFigure(b, "fig8c") }

// BenchmarkFig9Query3c_* regenerate Figure 9(a,b,c): Query 3c (positive
// ANY/EXISTS), where §4.2.5's rewrite matches the native (semi)join plan.
func BenchmarkFig9Query3c_a(b *testing.B) { benchFigure(b, "fig9a") }
func BenchmarkFig9Query3c_b(b *testing.B) { benchFigure(b, "fig9b") }
func BenchmarkFig9Query3c_c(b *testing.B) { benchFigure(b, "fig9c") }

// BenchmarkFig4Query1NotNull regenerates the in-text Query 1 variant:
// with NOT NULL declared, native's antijoin is legal and competitive.
func BenchmarkFig4Query1NotNull(b *testing.B) {
	// Constraints mutate the environment; use a private one.
	env, err := bench.NewEnv(bench.Config{SF: benchSF, Runs: 1, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := env.Fig4NotNull(); err != nil {
		b.Fatal(err)
	}
	sqls, err := env.QuerySQL("fig4-notnull")
	if err != nil {
		b.Fatal(err)
	}
	sel, err := sql.Parse(sqls[len(sqls)-1])
	if err != nil {
		b.Fatal(err)
	}
	q, err := sql.Analyze(sel, env.Cat)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("native-antijoin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := native.Execute(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nra-optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Execute(q, core.Optimized()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProcQ1 regenerates the in-text Query 1 processing table:
// nest + linking selection over the intermediate result, original
// two-pass vs optimized one-pass.
func BenchmarkProcQ1(b *testing.B) {
	e := sharedEnv(b)
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.ProcQ1(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProcQ2 regenerates the in-text Query 2 processing table.
func BenchmarkProcQ2(b *testing.B) {
	e := sharedEnv(b)
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.ProcQ2(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation times each §4.2 optimization in isolation on the
// workload families (the design-choice benchmarks from DESIGN.md).
func BenchmarkAblation(b *testing.B) {
	configs := []struct {
		name string
		opt  core.Options
	}{
		{"original", core.Original()},
		{"fused", core.Options{Fused: true}},
		{"bottomup", core.Options{BottomUp: true, Fused: true}},
		{"pushdown", core.Options{NestPushdown: true}},
		{"positive", core.Options{PositiveRewrite: true}},
		{"optimized", core.Optimized()},
	}
	for _, fig := range []string{"fig4", "fig6", "fig8a", "fig9a"} {
		q := analyzeLargest(b, fig)
		for _, c := range configs {
			b.Run(fig+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Execute(q, c.opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTracing times the observability overhead: the fully optimized
// configuration untraced versus with a per-query span tracer. Spans are
// recorded at operator entry/exit and per reservation or spill only, so the
// traced series must stay within a few percent of the untraced one
// (cmd/figures -tracing runs the same ablation with verification).
func BenchmarkTracing(b *testing.B) {
	configs := []struct {
		name string
		mk   func() core.Options
	}{
		{"untraced", core.Optimized},
		{"traced", func() core.Options {
			opt := core.Optimized()
			opt.Tracer = obsv.NewTracer()
			return opt
		}},
	}
	for _, fig := range []string{"fig4", "fig6", "fig8a"} {
		q := analyzeLargest(b, fig)
		for _, c := range configs {
			b.Run(fig+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Execute(q, c.mk()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
