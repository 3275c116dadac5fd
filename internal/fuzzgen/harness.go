package fuzzgen

import (
	"errors"
	"fmt"

	"nra/internal/catalog"
	"nra/internal/core"
	"nra/internal/naive"
	"nra/internal/native"
	"nra/internal/relation"
	"nra/internal/sql"
)

// Mode is one engine configuration of the differential matrix.
type Mode struct {
	Name string
	Opts core.Options
}

// Modes returns the four execution modes every generated query is
// checked under: heuristic serial, vectorized batch-at-a-time,
// memory-governed with a 64 KiB budget (forcing spills), and cost-based
// planning from fresh statistics. Results must be identical across all
// of them.
func Modes() []Mode {
	serial := core.Optimized()
	serial.UseStats, serial.CostBased = false, false
	vectorized := serial
	vectorized.Vectorized = true
	governed := serial
	governed.MemoryBudget = 64 << 10
	return []Mode{
		{"serial", serial},
		{"vectorized", vectorized},
		{"governed-64K", governed},
		{"cost-based", core.Optimized()},
	}
}

// CheckSQL runs one query through the full differential matrix against
// cat: the reference evaluator is the oracle; every execution mode (and,
// where its planner supports the shape, the native baseline) must match
// it tuple-for-tuple under 3VL, and the 2VL reference evaluator under
// 2VL. nullFree additionally asserts 2VL ≡ 3VL, which is sound only when
// cat holds no NULLs. It returns nil when every engine agrees.
func CheckSQL(src string, cat *catalog.Catalog, nullFree bool) error {
	sel, err := sql.Parse(src)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	q, err := sql.Analyze(sel, cat)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	want, err := naive.Evaluate(q)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	for _, m := range Modes() {
		got, err := core.Execute(q, m.Opts)
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
		if !got.EqualSet(want) {
			return mismatch(m.Name, want, got)
		}
	}
	if ex, err := native.New(q); err == nil {
		got, err := ex.Execute()
		if err != nil {
			return fmt.Errorf("native: %w", err)
		}
		if !got.EqualSet(want) {
			return mismatch("native", want, got)
		}
	} else if !errors.Is(err, native.ErrUnsupported) {
		return fmt.Errorf("native: %w", err)
	}
	want2, err := naive.EvaluateTwoValued(q)
	if err != nil {
		return fmt.Errorf("reference-2vl: %w", err)
	}
	for _, m := range Modes() {
		o := m.Opts
		o.TwoValuedLogic = true
		got, err := core.Execute(q, o)
		if err != nil {
			return fmt.Errorf("%s-2vl: %w", m.Name, err)
		}
		if !got.EqualSet(want2) {
			return mismatch(m.Name+"-2vl", want2, got)
		}
	}
	if nullFree && !want2.EqualSet(want) {
		return mismatch("2vl-vs-3vl(null-free)", want, want2)
	}
	return nil
}

// Check runs the differential matrix for one generated spec.
func Check(spec *Spec, cat *catalog.Catalog, nullFree bool) error {
	return CheckSQL(spec.SQL(), cat, nullFree)
}

func mismatch(mode string, want, got *relation.Relation) error {
	return fmt.Errorf("%s: result differs\noracle (%d rows):\n%s%s (%d rows):\n%s",
		mode, want.Len(), want, mode, got.Len(), got)
}

// Shrink greedily minimises a failing spec: it tries structural
// reductions — drop a subquery link, drop a local or correlated
// predicate, unwrap a syntactic NOT, clear a DISTINCT — and keeps any
// single reduction under which the differential check still fails,
// repeating until no reduction reproduces the failure. The result is
// the minimal spec whose SQL goes into the regression corpus.
func Shrink(spec *Spec, cat *catalog.Catalog, nullFree bool) *Spec {
	cur := spec.clone()
	for round := 0; round < 200; round++ {
		improved := false
		for _, cand := range reductions(cur) {
			if Check(cand, cat, nullFree) != nil {
				cur = cand
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// blockList returns the spec's blocks in depth-first order; clones of
// the same spec enumerate identically, so an index addresses the same
// block across copies.
func blockList(b *Block) []*Block {
	out := []*Block{b}
	for i := range b.Links {
		out = append(out, blockList(b.Links[i].Child)...)
	}
	return out
}

// reductions enumerates every single-step structural reduction of s,
// biggest cuts (dropping whole subqueries) first.
func reductions(s *Spec) []*Spec {
	var out []*Spec
	at := func(bi int, mut func(*Block)) {
		c := s.clone()
		mut(blockList(c.Root)[bi])
		out = append(out, c)
	}
	for bi, b := range blockList(s.Root) {
		for li := range b.Links {
			li := li
			at(bi, func(cb *Block) { cb.Links = append(cb.Links[:li:li], cb.Links[li+1:]...) })
		}
		for li := range b.Links {
			if b.Links[li].Not {
				li := li
				at(bi, func(cb *Block) { cb.Links[li].Not = false })
			}
		}
		for ci := range b.Locals {
			ci := ci
			at(bi, func(cb *Block) { cb.Locals = append(cb.Locals[:ci:ci], cb.Locals[ci+1:]...) })
		}
		for ci := range b.Corrs {
			ci := ci
			at(bi, func(cb *Block) { cb.Corrs = append(cb.Corrs[:ci:ci], cb.Corrs[ci+1:]...) })
		}
		if b.Distinct {
			at(bi, func(cb *Block) { cb.Distinct = false })
		}
	}
	return out
}
