package exec

import (
	"io"
	"sort"

	"nra/internal/algebra"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/value"
)

// spillSortBy sorts tuples by the given column indexes into a fresh
// slice, producing exactly the order Relation.SortBy does (stable,
// value.Less, NULLs first). When the sorted copy fits the memory budget
// (or the context is ungoverned) it runs in memory as one stable sort;
// otherwise it degrades to an external merge sort:
//
//  1. the input is split into consecutive runs each within the per-chunk
//     working-state bound; every run is sorted with the original global
//     position as tie-break and written to its own spill file, each
//     record tagged with that position;
//  2. a k-way merge over the run files compares by the sort columns and
//     tie-breaks on the tag.
//
// Runs are consecutive input ranges sorted stably and the merge breaks
// ties on original position, which defines the exact total order a stable
// sort does — so the external result is byte-identical to the in-memory
// one regardless of run boundaries.
//
// The second result reports whether the sort spilled.
func spillSortBy(ec *ExecContext, op string, tuples []relation.Tuple, idx []int, schema *relation.Schema) ([]relation.Tuple, bool, error) {
	var sp *obsv.Span
	if ec.Tracing() {
		sp = ec.StartSpan(op, obsv.KindSort)
		sp.AddRowsIn(int64(len(tuples)))
		defer sp.End()
	}
	if !ec.ForceSpill(op) {
		bytes := tuplesBytes(tuples)
		ok, err := ec.TryReserve(op, bytes)
		if err != nil {
			return nil, false, err
		}
		if ok {
			defer ec.Release(bytes)
			out := make([]relation.Tuple, len(tuples))
			for i, j := range stableOrder(tuples, idx, 0, len(tuples)) {
				out[i] = tuples[j]
			}
			sp.AddRowsOut(int64(len(out)))
			return out, false, nil
		}
	}
	sp.SetKind(obsv.KindExtSort)
	out, err := externalSortBy(ec, op, tuples, idx, schema)
	sp.AddRowsOut(int64(len(out)))
	return out, true, err
}

// lessOn compares two tuples on the sort columns under the SortBy order.
// known=false means equal on every column (the caller tie-breaks).
func lessOn(a, b relation.Tuple, idx []int) (less, known bool) {
	for _, i := range idx {
		va, vb := a.Atoms[i], b.Atoms[i]
		if !value.Identical(va, vb) {
			return value.Less(va, vb), true
		}
	}
	return false, false
}

// stableOrder returns the positions lo..hi-1 ordered by the sort
// columns, ties broken by position — the total order a stable sort
// defines.
func stableOrder(tuples []relation.Tuple, idx []int, lo, hi int) []int {
	ord := make([]int, hi-lo)
	for i := range ord {
		ord[i] = lo + i
	}
	sort.Slice(ord, func(i, j int) bool {
		a, b := ord[i], ord[j]
		if l, known := lessOn(tuples[a], tuples[b], idx); known {
			return l
		}
		return a < b
	})
	return ord
}

func externalSortBy(ec *ExecContext, op string, tuples []relation.Tuple, idx []int, schema *relation.Schema) ([]relation.Tuple, error) {
	bounds := algebra.SpillChunks(tuples, TupleBytes, ec.spillChunkBytes())
	readers := make([]*spillReader, 0, len(bounds)-1)
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()

	// Run generation: sort each consecutive range by (columns, original
	// position) and write it out tagged with the position. Only one run's
	// working copy is charged at a time.
	for w := 0; w+1 < len(bounds); w++ {
		if err := ec.Check(op); err != nil {
			return nil, err
		}
		lo, hi := bounds[w], bounds[w+1]
		runBytes := tuplesBytes(tuples[lo:hi])
		if err := ec.Reserve(op, runBytes); err != nil {
			return nil, err
		}
		ord := stableOrder(tuples, idx, lo, hi)
		sw, err := newSpillWriter(ec, op)
		if err != nil {
			ec.Release(runBytes)
			return nil, err
		}
		for _, j := range ord {
			if err := sw.writeRecord(uint64(j), tuples[j]); err != nil {
				sw.close()
				ec.Release(runBytes)
				return nil, &QueryError{Op: op, Err: err}
			}
		}
		n, err := sw.finish()
		ec.Release(runBytes)
		if err != nil {
			sw.close()
			return nil, err
		}
		ec.NoteSpill(n)
		readers = append(readers, newSpillReader(ec, op, sw.f, schema))
	}

	// k-way merge. The lookahead is one decoded tuple per run — fixed
	// cursor state, bounded by the run count, not charged against the
	// budget (see docs/ROBUSTNESS.md).
	heads := make([]relation.Tuple, len(readers))
	tags := make([]uint64, len(readers))
	alive := make([]bool, len(readers))
	advance := func(w int) error {
		tag, t, err := readers[w].readRecord()
		if err == io.EOF {
			alive[w] = false
			return nil
		}
		if err != nil {
			return err
		}
		tags[w], heads[w], alive[w] = tag, t, true
		return nil
	}
	for w := range readers {
		if err := advance(w); err != nil {
			return nil, err
		}
	}
	out := make([]relation.Tuple, 0, len(tuples))
	for {
		if len(out)&1023 == 0 {
			if err := ec.Check(op); err != nil {
				return nil, err
			}
		}
		best := -1
		for w := range readers {
			if !alive[w] {
				continue
			}
			if best < 0 {
				best = w
				continue
			}
			if l, known := lessOn(heads[w], heads[best], idx); known {
				if l {
					best = w
				}
			} else if tags[w] < tags[best] {
				best = w
			}
		}
		if best < 0 {
			return out, nil
		}
		out = append(out, heads[best])
		if err := advance(best); err != nil {
			return nil, err
		}
	}
}
