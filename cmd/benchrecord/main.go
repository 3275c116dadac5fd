// Command benchrecord runs the benchmark suites and records a machine-
// readable result file, failing when modeled cost regresses against a
// committed baseline.
//
// Usage:
//
//	benchrecord [-out BENCH_<date>.json] [-dir .] [-baseline auto]
//	            [-threshold 0.20] [-sf 0.005] [-runs 1] [-seed 42]
//
// It executes the paper's figure suite (Figures 4–9 with variants) plus
// the cost-based, 2VL and vectorized ablations, and emits
// one JSON
// record with per-query wall and modeled milliseconds for every series.
// The regression gate compares *modeled* milliseconds — the
// deterministic disk-resident cost of the executed plan, immune to
// machine noise — per (figure, label, series) against the newest
// committed BENCH_*.json in -dir, and exits non-zero when any entry
// regresses by more than -threshold (wall times are recorded for
// information only). With no baseline present it records the first one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nra"
	"nra/internal/bench"
	"nra/internal/catalog"
	"nra/internal/csvio"
	"nra/internal/service"
	"nra/internal/tpch"
)

// entry is one measured (figure, point, series) cell.
type entry struct {
	Figure    string  `json:"figure"`
	Label     string  `json:"label"`
	Series    string  `json:"series"`
	Rows      int     `json:"rows"`
	WallMS    float64 `json:"wall_ms"`
	ModeledMS float64 `json:"modeled_ms,omitempty"`
}

// record is the BENCH_<date>.json document.
type record struct {
	Date      string  `json:"date"`
	SF        float64 `json:"sf"`
	Runs      int     `json:"runs"`
	Seed      uint64  `json:"seed"`
	Threshold float64 `json:"threshold"`
	Entries   []entry `json:"entries"`
}

func main() {
	var (
		dir       = flag.String("dir", ".", "directory holding committed BENCH_*.json baselines")
		out       = flag.String("out", "", "output file (default <dir>/BENCH_<date>.json)")
		baseline  = flag.String("baseline", "auto", "baseline file, 'auto' (newest BENCH_*.json in -dir), or 'none'")
		threshold = flag.Float64("threshold", 0.20, "maximum allowed modeled-ms regression, as a fraction")
		sf        = flag.Float64("sf", 0.005, "TPC-H scale factor")
		runs      = flag.Int("runs", 1, "timed repetitions per point (minimum is reported)")
		seed      = flag.Uint64("seed", 42, "deterministic generator seed")
		qps       = flag.Bool("qps", true, "run the service throughput sweep (P50/P99 at several concurrency levels, plan cache on and off)")
		coldload  = flag.Bool("coldload", true, "run the storage cold-start suite (load milliseconds and bytes on disk, columnar vs CSV)")
	)
	flag.Parse()

	date := time.Now().Format("2006-01-02")
	if *out == "" {
		*out = filepath.Join(*dir, fmt.Sprintf("BENCH_%s.json", date))
	}

	rec := record{Date: date, SF: *sf, Runs: *runs, Seed: *seed, Threshold: *threshold}
	cfg := bench.Config{SF: *sf, Runs: *runs, Seed: *seed, Verify: true}

	figs, err := bench.AllFigures(cfg)
	if err != nil {
		fail(fmt.Errorf("figures: %w", err))
	}
	rec.Entries = append(rec.Entries, collect(figs)...)

	env, err := bench.NewEnv(cfg)
	if err != nil {
		fail(err)
	}
	for _, suite := range []struct {
		name string
		run  func() ([]*bench.Figure, error)
	}{
		{"cost ablation", env.CostAblation},
		{"2VL ablation", env.TwoVLAblation},
		{"vectorized ablation", env.VecAblation},
	} {
		figs, err := suite.run()
		if err != nil {
			fail(fmt.Errorf("%s: %w", suite.name, err))
		}
		rec.Entries = append(rec.Entries, collect(figs)...)
	}

	if *qps {
		qpsEntries, err := runQPS(*sf, *seed)
		if err != nil {
			fail(fmt.Errorf("qps sweep: %w", err))
		}
		rec.Entries = append(rec.Entries, qpsEntries...)
	}

	if *coldload {
		loadEntries, err := runColstoreLoad(*sf, *seed, *runs)
		if err != nil {
			fail(fmt.Errorf("colstore-load suite: %w", err))
		}
		rec.Entries = append(rec.Entries, loadEntries...)
	}

	sort.Slice(rec.Entries, func(i, j int) bool {
		a, b := rec.Entries[i], rec.Entries[j]
		if a.Figure != b.Figure {
			return a.Figure < b.Figure
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Series < b.Series
	})

	base, basePath, err := loadBaseline(*baseline, *dir, *out)
	if err != nil {
		fail(err)
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fail(err)
	}
	if parent := filepath.Dir(*out); parent != "." {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			fail(err)
		}
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("benchrecord: %d entries written to %s\n", len(rec.Entries), *out)

	if base == nil {
		fmt.Println("benchrecord: no baseline found — this run is the first baseline")
		return
	}
	regressions := compare(base, &rec, *threshold)
	if len(regressions) == 0 {
		fmt.Printf("benchrecord: no modeled regressions > %.0f%% vs %s\n", *threshold*100, basePath)
		return
	}
	fmt.Fprintf(os.Stderr, "benchrecord: %d modeled regression(s) > %.0f%% vs %s:\n",
		len(regressions), *threshold*100, basePath)
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "  "+r)
	}
	os.Exit(1)
}

// runQPS sweeps service-path throughput on a TPC-H instance: two
// correlated subqueries driven through sessions, admission and the plan
// cache at several concurrency levels, cache on and off. Latencies are
// wall time, so the entries carry no modeled milliseconds and are
// recorded for information, not gated.
func runQPS(sf float64, seed uint64) ([]entry, error) {
	cfg := nra.TPCHScale(sf)
	cfg.Seed = seed
	db, err := nra.OpenTPCH(cfg)
	if err != nil {
		return nil, err
	}
	if err := db.Analyze(); err != nil {
		return nil, err
	}
	pts, err := service.RunQPS(db, service.QPSConfig{
		Queries: []string{
			`select o_orderkey from orders where o_totalprice > all
			   (select l_extendedprice from lineitem where l_orderkey = o_orderkey)`,
			`select c_custkey from customer where exists
			   (select * from orders where o_custkey = c_custkey)`,
		},
		Concurrency: []int{1, 4, 16},
		PerWorker:   25,
	})
	if err != nil {
		return nil, err
	}
	var out []entry
	for _, p := range pts {
		series := "cache-off"
		if p.CacheOn {
			series = "cache-on"
		}
		label := fmt.Sprintf("C=%d", p.Concurrency)
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		out = append(out,
			entry{Figure: "service-qps", Label: label, Series: series + " p50", Rows: p.Queries, WallMS: ms(p.P50)},
			entry{Figure: "service-qps", Label: label, Series: series + " p99", Rows: p.Queries, WallMS: ms(p.P99)},
			entry{Figure: "service-qps", Label: label, Series: series + " mean", Rows: p.Queries, WallMS: 1e3 * float64(p.Concurrency) / p.QPS},
		)
	}
	return out, nil
}

// runColstoreLoad measures the cold-start cost of the two on-disk
// table formats. One deterministic TPC-H catalog is saved twice — as
// binary columnar segments and as CSV — and each directory is timed
// through a fresh load (minimum over -runs repetitions). Bytes on disk
// are recorded alongside so the size/speed trade-off lands in the same
// record. Load times are wall time, so like the qps sweep these
// entries carry no modeled milliseconds and are not gated.
func runColstoreLoad(sf float64, seed uint64, runs int) ([]entry, error) {
	cfg := tpch.Scale(sf)
	cfg.Seed = seed
	cat, err := tpch.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, name := range cat.Names() {
		tbl, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		rows += tbl.Rel.Len()
	}

	root, err := os.MkdirTemp("", "benchrecord-colstore-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var out []entry
	for _, fc := range []struct {
		label string
		save  func(*catalog.Catalog, string, ...string) error
	}{
		{"columnar", csvio.Save},
		{"csv", csvio.SaveCSV},
	} {
		dir := filepath.Join(root, fc.label)
		if err := fc.save(cat, dir); err != nil {
			return nil, err
		}
		bytes, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		best := time.Duration(0)
		for r := 0; r < runs || r == 0; r++ {
			start := time.Now()
			if _, err := csvio.Load(dir); err != nil {
				return nil, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		out = append(out,
			entry{Figure: "colstore-load", Label: fc.label, Series: "cold-start",
				Rows: rows, WallMS: float64(best) / float64(time.Millisecond)},
			entry{Figure: "colstore-load", Label: fc.label, Series: "bytes-on-disk",
				Rows: int(bytes)},
		)
	}
	return out, nil
}

// dirBytes sums the sizes of all regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// collect flattens figures into entries.
func collect(figs []*bench.Figure) []entry {
	var out []entry
	for _, f := range figs {
		for _, p := range f.Points {
			for series, d := range p.Times {
				e := entry{
					Figure: f.ID,
					Label:  p.Label,
					Series: series,
					Rows:   p.Rows,
					WallMS: float64(d) / float64(time.Millisecond),
				}
				if m, ok := p.Modeled[series]; ok {
					e.ModeledMS = float64(m) / float64(time.Millisecond)
				}
				out = append(out, e)
			}
		}
	}
	return out
}

// loadBaseline resolves the baseline record: an explicit path, the
// newest BENCH_*.json in dir other than the output file, or none.
func loadBaseline(mode, dir, out string) (*record, string, error) {
	if mode == "none" {
		return nil, "", nil
	}
	path := mode
	if mode == "auto" {
		matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			return nil, "", err
		}
		outAbs, _ := filepath.Abs(out)
		var candidates []string
		for _, m := range matches {
			if abs, _ := filepath.Abs(m); abs != outAbs {
				candidates = append(candidates, m)
			}
		}
		if len(candidates) == 0 {
			return nil, "", nil
		}
		// BENCH_<ISO date>.json sorts chronologically by name.
		sort.Strings(candidates)
		path = candidates[len(candidates)-1]
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("baseline: %w", err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, "", fmt.Errorf("baseline %s: %w", path, err)
	}
	return &rec, path, nil
}

// compare returns one message per (figure, label, series) whose modeled
// milliseconds regressed beyond the threshold. Entries absent from
// either record, or without modeled values, are skipped: wall time is
// too machine-dependent to gate on.
func compare(base, cur *record, threshold float64) []string {
	idx := make(map[string]float64, len(base.Entries))
	for _, e := range base.Entries {
		if e.ModeledMS > 0 {
			idx[e.Figure+"\x00"+e.Label+"\x00"+e.Series] = e.ModeledMS
		}
	}
	var out []string
	for _, e := range cur.Entries {
		want, ok := idx[e.Figure+"\x00"+e.Label+"\x00"+e.Series]
		if !ok || e.ModeledMS <= 0 {
			continue
		}
		if e.ModeledMS > want*(1+threshold) {
			out = append(out, fmt.Sprintf("%s [%s] %s: modeled %.2fms vs baseline %.2fms (+%.0f%%)",
				e.Figure, e.Label, e.Series, e.ModeledMS, want, (e.ModeledMS/want-1)*100))
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchrecord:", err)
	os.Exit(1)
}
