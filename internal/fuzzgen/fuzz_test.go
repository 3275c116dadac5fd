package fuzzgen

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// envInt reads an integer environment knob, falling back to def when the
// variable is unset or malformed.
func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestFuzzDifferential is the main fuzzing loop: NRA_FUZZ_QUERIES random
// nested queries (default 250; CI runs 1000), each checked across the
// full differential matrix — reference oracle vs four execution modes vs
// the native baseline, under both 3VL and 2VL, with every fourth seed on
// NULL-free data where 2VL must equal 3VL exactly. A failure shrinks to
// a minimal query, prints the reproducing seed, and (when
// NRA_FUZZ_ARTIFACT_DIR is set) writes a corpus-format artifact file.
// NRA_FUZZ_SECONDS soft-bounds wall time; truncation is logged.
func TestFuzzDifferential(t *testing.T) {
	queries := envInt("NRA_FUZZ_QUERIES", 250)
	if testing.Short() && queries > 60 {
		queries = 60
	}
	secs := envInt("NRA_FUZZ_SECONDS", 0)
	baseSeed := int64(envInt("NRA_FUZZ_SEED", 1))
	var deadline time.Time
	if secs > 0 {
		deadline = time.Now().Add(time.Duration(secs) * time.Second)
	}
	checked := 0
	for i := 0; i < queries; i++ {
		if secs > 0 && time.Now().After(deadline) {
			t.Logf("fuzz: time box of %ds hit — truncated to %d of %d queries", secs, checked, queries)
			break
		}
		runSeed(t, baseSeed+int64(i))
		checked++
	}
	t.Logf("fuzz: %d queries checked (base seed %d, %d-mode matrix, 3VL+2VL)", checked, baseSeed, len(Modes()))
}

// runSeed generates and differentially checks the query at one seed.
// The seed determines the catalog, the query, and the NULL regime.
func runSeed(t *testing.T, seed int64) {
	t.Helper()
	cfg := DefaultConfig()
	nullFree := seed%4 == 0
	if nullFree {
		cfg.NullFraction = 0
	}
	cat, err := NewCatalog(seed, cfg)
	if err != nil {
		t.Fatalf("seed %d: catalog: %v", seed, err)
	}
	spec := NewGen(seed, cfg).Query()
	if err := Check(spec, cat, nullFree); err != nil {
		min := Shrink(spec, cat, nullFree)
		writeArtifact(t, seed, cfg, spec, min)
		t.Fatalf("fuzz failure at seed %d (nulls=%g)\n  original:  %s\n  minimized: %s\n%v\n"+
			"reproduce: NRA_FUZZ_SEED=%d NRA_FUZZ_QUERIES=1 go test ./internal/fuzzgen -run TestFuzzDifferential\n"+
			"then check the minimized query into internal/fuzzgen/testdata/corpus/ (see docs/FUZZING.md)",
			seed, cfg.NullFraction, spec.SQL(), min.SQL(), Check(min, cat, nullFree), seed)
	}
}

// writeArtifact saves a corpus-format reproducer for CI to upload.
func writeArtifact(t *testing.T, seed int64, cfg Config, spec, min *Spec) {
	t.Helper()
	dir := os.Getenv("NRA_FUZZ_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	body := fmt.Sprintf("-- seed: %d\n-- nulls: %g\n-- minimized from: %s\n%s\n",
		seed, cfg.NullFraction, spec.SQL(), min.SQL())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.sql", seed))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("artifact: %v", err)
		return
	}
	t.Logf("failing seed written to %s", path)
}

// TestTwoVLMatchesThreeVLNullFree pins the semantics property behind the
// 2VL mode: on databases without NULLs, two-valued and three-valued
// logic are the same logic, so every engine must produce identical
// results under both — including the antijoin fast path the 2VL planner
// takes for NOT IN / NOT EXISTS / θ ALL.
func TestTwoVLMatchesThreeVLNullFree(t *testing.T) {
	iters := 80
	if testing.Short() {
		iters = 20
	}
	cfg := DefaultConfig()
	cfg.NullFraction = 0
	for i := 0; i < iters; i++ {
		seed := int64(5_000 + i)
		cat, err := NewCatalog(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: catalog: %v", seed, err)
		}
		spec := NewGen(seed, cfg).Query()
		if err := Check(spec, cat, true); err != nil {
			min := Shrink(spec, cat, true)
			t.Fatalf("seed %d: 2VL/3VL divergence on NULL-free data\n  minimized: %s\n%v",
				seed, min.SQL(), err)
		}
	}
}

// TestShrinkProducesValidSQL pins the shrinker's invariant: every
// structural reduction of a generated spec still parses, analyzes and
// evaluates — so a minimized reproducer is always a runnable query.
func TestShrinkProducesValidSQL(t *testing.T) {
	cfg := DefaultConfig()
	for i := 0; i < 20; i++ {
		seed := int64(9_000 + i)
		cat, err := NewCatalog(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: catalog: %v", seed, err)
		}
		spec := NewGen(seed, cfg).Query()
		for _, cand := range reductions(spec) {
			if err := Check(cand, cat, false); err != nil {
				t.Fatalf("seed %d: reduction of a passing spec fails\n  %s\n%v", seed, cand.SQL(), err)
			}
		}
	}
}
