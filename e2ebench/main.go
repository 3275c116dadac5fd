// Command e2ebench is the repository's end-to-end benchmark. It
// generates a TPC-H database from a seed, saves it as columnar
// segments, starts the real nrad binary on that directory over loopback,
// and drives one closed-loop workload against it, checking every
// response. With -trace 1 it also replays the workload's seeded request
// stream in-process and splits the time across the engine's layers.
//
// Run it through run.sh, which builds nrad and this benchmark first:
//
//	bash e2ebench/run.sh --workload paper-analytic --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nra/internal/csvio"
	"nra/internal/tpch"
)

// scaleFactor is the TPC-H scale the benchmark generates. It is fixed so
// every run and every commit measure the same database size.
const scaleFactor = 0.01

// setupRepeats is how many times a run starts nrad to measure setup_s;
// the median is reported.
const setupRepeats = 7

// warmup is how long the clients run, checked but untimed, before the
// measured window: long enough for the plan cache to fill and lazy
// indexes and column stores to be built.
const warmup = 2 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload: paper-analytic, short-lookup or write-mix")
		seed     = flag.Uint64("seed", 1, "seed for the generated database and request stream")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
		nradBin  = flag.String("nrad", "", "path to the nrad binary")
		workDir  = flag.String("work", "", "directory for generated data (removed on exit)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *nradBin, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed uint64, seconds int, traced bool, nradBin, workDir string) error {
	prepare, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if nradBin == "" || workDir == "" {
		return fmt.Errorf("-nrad and -work are required (use run.sh)")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	fmt.Printf("machine: GOMAXPROCS=%d cpu=%q go=%s sf=%g seed=%d workload=%s seconds=%d trace=%v\n",
		runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), scaleFactor, seed, name, seconds, traced)

	// Generating and saving the data happen before any clock starts.
	cfg := tpch.Scale(scaleFactor)
	cfg.Seed = seed
	cat, err := tpch.Generate(cfg)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	pristine := filepath.Join(tmp, "pristine")
	if err := csvio.Save(cat, pristine); err != nil {
		return fmt.Errorf("save segments: %w", err)
	}
	phase("generate")
	w, err := prepare(cat, pristine, seed)
	if err != nil {
		return fmt.Errorf("prepare %s: %w", name, err)
	}
	phase("references")

	setup, srv, err := measureSetup(nradBin, pristine, tmp)
	if err != nil {
		return err
	}
	phase("setup")
	rec, runErr := w.drive(srv, time.Duration(seconds)*time.Second, traced)
	var st serverStats
	var rssMB float64
	if runErr == nil {
		st, runErr = srv.stats()
		rssMB = srv.peakRSSMB()
	}
	if err := srv.stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return runErr
	}
	phase("run")
	failures := w.verify(rec)
	phase("verify")

	attempted := len(rec.warm) + len(rec.samples)
	e2e := endToEnd(rec, setup, rssMB, float64(failures)/float64(attempted))
	fmt.Printf("workload %s: %d statements attempted, %d failed\n", name, attempted, failures)
	for _, k := range sortedKeys(e2e) {
		fmt.Printf("  %-24s %12.4f %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	out := result{Correct: failures == 0, Attempted: attempted, Failed: failures}
	if !traced {
		out.Metrics = pick(e2e, endToEndNames)
	} else {
		layers, err := w.replay(pristine, tmp, rec, seconds)
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		phase("traced replay")
		serverLayers(layers, rec, st)
		for _, k := range sortedKeys(layers) {
			fmt.Printf("  %-30s %12.4f %s\n", k, layers[k].Value, layers[k].Unit)
		}
		out.Metrics = pick(layers, perLayerNames)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndNames are the metrics reported with -trace 0, as listed in
// BENCHMARK.json. write_p50_ms, write_p95_ms and fail_ratio are printed
// above the JSON line: the write latencies exist only on write-mix, and
// failures are reported through the failed/attempted counts.
var endToEndNames = []string{"setup_s", "read_p50_ms", "read_p95_ms", "throughput_ops", "peak_rss_mb"}

// perLayerNames are the metrics reported with -trace 1.
var perLayerNames = []string{
	"sql.parse_us", "sql.bind_us",
	"plancache.hit_ratio", "plancache.evictions_per_1k", "plancache.invalidations_per_1k",
	"service.overhead_ms", "service.queued_ratio", "service.encode_ms", "service.resp_bytes",
	"result.sort_ms", "result.rows_ms",
	"core.plan_ms", "core.finish_ms",
	"exec.scan_ms", "exec.join_ms", "exec.nestlink_ms", "exec.sort_ms",
	"exec.rows_in_per_row_out", "exec.batch_share", "exec.spill_bytes",
	"dml.insert_ms", "dml.update_ms", "dml.delete_ms", "wal.bytes_per_user_byte",
	"csvio.load_ms", "stats.analyze_ms",
	"trace.coverage", "trace.overhead_ratio",
}

func pick(all map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			panic("e2ebench: metric " + n + " was not computed")
		}
		out[n] = m
	}
	return out
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// endToEnd computes the client-side metrics of the measured window.
func endToEnd(rec *record, setup []time.Duration, rssMB, failRatio float64) map[string]metric {
	var reads, writes []float64
	for _, s := range rec.samples {
		ms := float64(s.dur) / float64(time.Millisecond)
		if s.write {
			writes = append(writes, ms)
		} else {
			reads = append(reads, ms)
		}
	}
	secs := make([]float64, len(setup))
	for i, d := range setup {
		secs[i] = d.Seconds()
	}
	m := map[string]metric{
		"setup_s":        {median(secs), "s"},
		"read_p50_ms":    {percentile(reads, 50), "ms"},
		"read_p95_ms":    {percentile(reads, 95), "ms"},
		"throughput_ops": {float64(len(rec.samples)) / rec.window.Seconds(), "statements/s"},
		"peak_rss_mb":    {rssMB, "MiB"},
		"fail_ratio":     {failRatio, "ratio"},
	}
	if len(writes) > 0 {
		m["write_p50_ms"] = metric{percentile(writes, 50), "ms"}
		m["write_p95_ms"] = metric{percentile(writes, 95), "ms"}
	}
	return m
}

var phaseStart = time.Now()

// phase logs how long the previous phase of the run took to standard
// error, which the result parser ignores.
func phase(name string) {
	fmt.Fprintf(os.Stderr, "e2ebench: %-14s %6.2fs\n", name, time.Since(phaseStart).Seconds())
	phaseStart = time.Now()
}

// cpuModel reads the CPU model name for the machine descriptor.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
