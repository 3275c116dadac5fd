package bench

import (
	"strings"
	"testing"
	"time"
)

func tinyConfig() Config {
	return Config{SF: 0.001, Runs: 1, Seed: 7, Verify: true}
}

func TestFig4RunsAndVerifies(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	fig, err := e.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 4 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	// Sweep must be monotone in the outer block size.
	for i := 1; i < len(fig.Points); i++ {
		if fig.Points[i].BlockSizes[0] < fig.Points[i-1].BlockSizes[0] {
			t.Fatalf("outer block sizes not monotone: %v then %v",
				fig.Points[i-1].BlockSizes, fig.Points[i].BlockSizes)
		}
	}
	out := fig.Format()
	for _, want := range []string{"fig4", StratNative, StratNRAOptimized, "rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

func TestFigureFamiliesRun(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fig5(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fig6(); err != nil {
		t.Fatal(err)
	}
	figs, err := e.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("fig8 family should have 3 variants, got %d", len(figs))
	}
	for _, f := range figs {
		for _, p := range f.Points {
			for _, s := range []string{StratNative, StratNRAOriginal, StratNRAOptimized} {
				if _, ok := p.Times[s]; !ok {
					t.Fatalf("%s point %s missing series %s", f.ID, p.Label, s)
				}
			}
		}
	}
}

func TestProcTables(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p1, err := e.ProcQ1()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Points) != 4 {
		t.Fatalf("proc-q1 points = %d", len(p1.Points))
	}
	for _, p := range p1.Points {
		if p.Times[StratNRAOriginal] <= 0 || p.Times[StratNRAOptimized] <= 0 {
			t.Fatalf("missing proc timings: %v", p.Times)
		}
	}
	if _, err := e.ProcQ2(); err != nil {
		t.Fatal(err)
	}
}

func TestAblationVerifies(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	figs, err := e.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("ablation workloads = %d", len(figs))
	}
	for _, f := range figs {
		series := f.Series()
		if len(series) != 6 {
			t.Fatalf("%s: series = %v", f.ID, series)
		}
	}
}

func TestCostAblationVerifies(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	figs, err := e.CostAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("cost ablation workloads = %d", len(figs))
	}
	for _, f := range figs {
		series := f.Series()
		if len(series) != 2 {
			t.Fatalf("%s: series = %v", f.ID, series)
		}
	}
}

func TestTwoVLAblationVerifies(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	figs, err := e.TwoVLAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("2VL ablation workloads = %d", len(figs))
	}
	for _, f := range figs {
		series := f.Series()
		if len(series) != 2 {
			t.Fatalf("%s: series = %v", f.ID, series)
		}
	}
	// NULL-injecting configurations must be rejected: the 2VL-vs-3VL
	// verification is only sound on NULL-free data.
	cfg := tinyConfig()
	cfg.NullFraction = 0.1
	en, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.TwoVLAblation(); err == nil {
		t.Fatal("TwoVLAblation accepted a NULL-injecting config")
	}
}

func TestVecAblationVerifies(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	figs, err := e.VecAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("vectorized ablation workloads = %d", len(figs))
	}
	for _, f := range figs {
		series := f.Series()
		if len(series) != 2 {
			t.Fatalf("%s: series = %v", f.ID, series)
		}
	}
}

func TestFig4NotNullAntijoinCompetitive(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	fig, err := e.Fig4NotNull()
	if err != nil {
		t.Fatal(err)
	}
	// With NOT NULL the native plan is the antijoin pipeline: it must not
	// be catastrophically slower than the NRA (same asymptotics).
	for _, p := range fig.Points {
		if p.Times[StratNative] > 50*p.Times[StratNRAOptimized]+time.Millisecond*200 {
			t.Fatalf("antijoin plan unexpectedly slow at %s: %v", p.Label, p.Times)
		}
	}
}

func TestNullFractionEnvRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.NullFraction = 0.1
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fig4(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fig4NotNull(); err == nil {
		t.Fatal("NOT NULL variant must refuse a NULL-bearing database")
	}
}

// TestModeledShapesMatchPaper pins the reproduction's headline claims as
// regression tests: the modeled (access-count-based) series is fully
// deterministic, so the figure *shapes* can be asserted exactly.
func TestModeledShapesMatchPaper(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Figure 4: native (nested iteration) ≫ NRA, and native grows with
	// the outer block while NRA stays nearly flat.
	fig4, err := e.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	first, last := fig4.Points[0], fig4.Points[len(fig4.Points)-1]
	if last.Modeled[StratNative] < 10*last.Modeled[StratNRAOptimized] {
		t.Fatalf("fig4: native should be ≫ NRA on the modeled series: %v vs %v",
			last.Modeled[StratNative], last.Modeled[StratNRAOptimized])
	}
	if last.Modeled[StratNative] < 2*first.Modeled[StratNative] {
		t.Fatalf("fig4: native should grow with the outer block: %v → %v",
			first.Modeled[StratNative], last.Modeled[StratNative])
	}
	if last.Modeled[StratNRAOptimized] > 3*first.Modeled[StratNRAOptimized] {
		t.Fatalf("fig4: NRA should stay near-flat: %v → %v",
			first.Modeled[StratNRAOptimized], last.Modeled[StratNRAOptimized])
	}

	// Figure 5 vs Figure 6: native is competitive on the mixed ANY query
	// and collapses on the negative ALL query, while the NRA series is
	// operator-independent (≈ equal across the two figures).
	fig5, err := e.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := e.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	l5, l6 := fig5.Points[len(fig5.Points)-1], fig6.Points[len(fig6.Points)-1]
	if l5.Modeled[StratNative] > 2*l5.Modeled[StratNRAOptimized] {
		t.Fatalf("fig5: native pipeline should be competitive: %v vs %v",
			l5.Modeled[StratNative], l5.Modeled[StratNRAOptimized])
	}
	if l6.Modeled[StratNative] < 10*l6.Modeled[StratNRAOptimized] {
		t.Fatalf("fig6: native should collapse on ALL: %v vs %v",
			l6.Modeled[StratNative], l6.Modeled[StratNRAOptimized])
	}
	ratio := float64(l6.Modeled[StratNRAOptimized]) / float64(l5.Modeled[StratNRAOptimized])
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("NRA must be operator-independent across fig5/fig6: ratio %f", ratio)
	}

	// Figure 4 + NOT NULL: the antijoin makes native competitive again.
	e2, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	nn, err := e2.Fig4NotNull()
	if err != nil {
		t.Fatal(err)
	}
	lnn := nn.Points[len(nn.Points)-1]
	if lnn.Modeled[StratNative] > 2*lnn.Modeled[StratNRAOptimized] {
		t.Fatalf("fig4-notnull: antijoin should be competitive: %v vs %v",
			lnn.Modeled[StratNative], lnn.Modeled[StratNRAOptimized])
	}
}

func TestTracingAblationVerifies(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	figs, err := e.TracingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("tracing ablation workloads = %d", len(figs))
	}
	for _, f := range figs {
		series := f.Series()
		if len(series) != 2 {
			t.Fatalf("%s: series = %v", f.ID, series)
		}
	}
}

func TestTraceWaterfallsRender(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tfs, err := e.TraceWaterfalls()
	if err != nil {
		t.Fatal(err)
	}
	if len(tfs) != 4 {
		t.Fatalf("waterfalls = %d, want 4", len(tfs))
	}
	for _, tf := range tfs {
		if !strings.Contains(tf.Text, "query") || !strings.Contains(tf.Text, "operator") {
			t.Errorf("%s: waterfall missing headers:\n%s", tf.ID, tf.Text)
		}
		if !strings.Contains(tf.Text, "#") {
			t.Errorf("%s: waterfall has no time bars:\n%s", tf.ID, tf.Text)
		}
	}
}
