// Command figures regenerates the paper's evaluation figures (Figures 4–9
// of Cao & Badia, SIGMOD 2005), the in-text intermediate-result processing
// tables, and the §4.2 ablation study. Each figure prints two series sets:
// measured in-memory wall time, and the modeled disk-resident cost that is
// comparable to the paper's cold-cache 2005 testbed (see DESIGN.md §5 and
// internal/iomodel).
//
// Usage:
//
//	figures [-sf 0.01] [-runs 3] [-seed 42] [-nulls 0] [-fig fig4,...]
//	        [-ablation] [-costbased] [-twovl] [-vectorized]
//	        [-tracing] [-trace]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nra/internal/bench"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor (paper used 1.0)")
		runs     = flag.Int("runs", 3, "timed repetitions per point (minimum reported)")
		seed     = flag.Uint64("seed", 42, "generator seed")
		nulls    = flag.Float64("nulls", 0, "NULL fraction in measure columns")
		only     = flag.String("fig", "", "comma-separated figure ids to run (default: all)")
		ablation = flag.Bool("ablation", false, "also run the §4.2 ablation study")
		costb    = flag.Bool("costbased", false, "also run the cost-based vs heuristic planner ablation")
		twovl    = flag.Bool("twovl", false, "also run the 2VL vs 3VL ablation (needs -nulls 0)")
		vecf     = flag.Bool("vectorized", false, "also run the vectorized (batch-at-a-time) vs row ablation")
		trace    = flag.Bool("trace", false, "also render a span waterfall for each workload query (Query 1/2b/3b/3c)")
		tracing  = flag.Bool("tracing", false, "also run the tracing-overhead ablation (untraced vs traced)")
		noverify = flag.Bool("noverify", false, "skip cross-strategy result verification")
	)
	flag.Parse()

	cfg := bench.Config{SF: *sf, Runs: *runs, Seed: *seed, NullFraction: *nulls, Verify: !*noverify}
	fmt.Printf("# nested relational approach — figure regeneration (sf=%g, seed=%d, runs=%d, nulls=%g)\n\n",
		*sf, *seed, *runs, *nulls)

	if *only != "" {
		if err := runSelected(cfg, strings.Split(*only, ",")); err != nil {
			fail(err)
		}
	} else {
		figs, err := bench.AllFigures(cfg)
		if err != nil {
			fail(err)
		}
		for _, f := range figs {
			fmt.Println(f.Format())
		}
	}

	if *ablation || *costb || *twovl || *vecf || *trace || *tracing {
		env, err := bench.NewEnv(cfg)
		if err != nil {
			fail(err)
		}
		if *ablation {
			figs, err := env.Ablation()
			if err != nil {
				fail(err)
			}
			for _, f := range figs {
				fmt.Println(f.Format())
			}
		}
		if *costb {
			figs, err := env.CostAblation()
			if err != nil {
				fail(err)
			}
			for _, f := range figs {
				fmt.Println(f.Format())
			}
		}
		if *twovl {
			figs, err := env.TwoVLAblation()
			if err != nil {
				fail(err)
			}
			for _, f := range figs {
				fmt.Println(f.Format())
			}
		}
		if *vecf {
			figs, err := env.VecAblation()
			if err != nil {
				fail(err)
			}
			for _, f := range figs {
				fmt.Println(f.Format())
			}
		}
		if *tracing {
			figs, err := env.TracingAblation()
			if err != nil {
				fail(err)
			}
			for _, f := range figs {
				fmt.Println(f.Format())
			}
		}
		if *trace {
			tfs, err := env.TraceWaterfalls()
			if err != nil {
				fail(err)
			}
			for _, tf := range tfs {
				fmt.Printf("## %s — %s\n\n%s\n%s\n", tf.ID, tf.Title, tf.SQL, tf.Text)
			}
		}
	}
}

func runSelected(cfg bench.Config, ids []string) error {
	env, err := bench.NewEnv(cfg)
	if err != nil {
		return err
	}
	for _, id := range ids {
		var figs []*bench.Figure
		switch strings.TrimSpace(id) {
		case "fig4":
			f, err := env.Fig4()
			if err != nil {
				return err
			}
			figs = append(figs, f)
		case "fig4-notnull":
			f, err := env.Fig4NotNull()
			if err != nil {
				return err
			}
			figs = append(figs, f)
		case "fig5":
			f, err := env.Fig5()
			if err != nil {
				return err
			}
			figs = append(figs, f)
		case "fig6":
			f, err := env.Fig6()
			if err != nil {
				return err
			}
			figs = append(figs, f)
		case "fig7":
			fs, err := env.Fig7()
			if err != nil {
				return err
			}
			figs = fs
		case "fig8":
			fs, err := env.Fig8()
			if err != nil {
				return err
			}
			figs = fs
		case "fig9":
			fs, err := env.Fig9()
			if err != nil {
				return err
			}
			figs = fs
		case "proc-q1":
			f, err := env.ProcQ1()
			if err != nil {
				return err
			}
			figs = append(figs, f)
		case "proc-q2":
			f, err := env.ProcQ2()
			if err != nil {
				return err
			}
			figs = append(figs, f)
		case "ablation":
			fs, err := env.Ablation()
			if err != nil {
				return err
			}
			figs = fs
		case "costbased":
			fs, err := env.CostAblation()
			if err != nil {
				return err
			}
			figs = fs
		case "twovl":
			fs, err := env.TwoVLAblation()
			if err != nil {
				return err
			}
			figs = fs
		case "vectorized":
			fs, err := env.VecAblation()
			if err != nil {
				return err
			}
			figs = fs
		default:
			return fmt.Errorf("unknown figure id %q", id)
		}
		for _, f := range figs {
			fmt.Println(f.Format())
		}
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
