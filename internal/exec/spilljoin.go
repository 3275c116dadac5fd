package exec

import (
	"io"

	"nra/internal/algebra"
	"nra/internal/expr"
	"nra/internal/obsv"
	"nra/internal/relation"
)

// joinSpill is the budget-bounded hash join: the grace-style degradation
// Join and HashJoin take when the build side does not fit the memory
// budget. It produces output byte-identical to algebra.Join /
// algebra.LeftOuterJoin (and therefore to the in-memory Join):
//
//  1. the build side is split into consecutive chunks each within the
//     per-chunk working-state bound, so only one chunk's hash table is in
//     memory at a time;
//  2. for each chunk, the whole probe side is scanned in input order and
//     every surviving joined tuple is written to that chunk's spill file
//     tagged with its probe-row index; a matched bitmap accumulates
//     outer-join padding decisions across chunks;
//  3. a final merge walks probe indexes 0..n-1, concatenating each
//     index's records from the chunk files in chunk order.
//
// Chunks are consecutive ranges of the build input, so "chunk order" is
// ascending build-row order — exactly the in-memory join's match order
// (hash buckets list build rows in input order). Padding appends after a
// probe tuple's last match, as in the serial loop.
//
// A nil lk/rk (no equality conjunct) degrades each chunk to a nested-loop
// scan, mirroring the in-memory fallback.
func joinSpill(ec *ExecContext, op string, l, r *relation.Relation, lk, rk []int, check *expr.Compiled, schema *relation.Schema, outer bool) (out *relation.Relation, err error) {
	if ec.Tracing() {
		sp := ec.StartSpan(op+"/grace", obsv.KindGraceJoin)
		sp.AddRowsIn(int64(l.Len() + r.Len()))
		defer func() {
			if out != nil {
				sp.AddRowsOut(int64(out.Len()))
			}
			sp.End()
		}()
	}
	bounds := algebra.SpillChunks(r.Tuples, TupleBytes, ec.spillChunkBytes())
	readers := make([]*spillReader, 0, len(bounds)-1)
	defer func() {
		for _, rd := range readers {
			rd.close()
		}
	}()

	var matched []bool
	if outer {
		if err := ec.Reserve(op, int64(l.Len())); err != nil {
			return nil, err
		}
		defer ec.Release(int64(l.Len()))
		matched = make([]bool, l.Len())
	}
	pad := nullNested(r.Schema)

	for w := 0; w+1 < len(bounds); w++ {
		if err := ec.Check(op); err != nil {
			return nil, err
		}
		lo, hi := bounds[w], bounds[w+1]
		chunkBytes := tuplesBytes(r.Tuples[lo:hi])
		if err := ec.Reserve(op, chunkBytes); err != nil {
			return nil, err
		}
		release := func() { ec.Release(chunkBytes) }

		// Build this chunk's table; NULL-keyed build rows match nothing.
		var table map[string][]int
		if len(rk) > 0 {
			table = make(map[string][]int, hi-lo)
		rows:
			for ri := lo; ri < hi; ri++ {
				t := r.Tuples[ri]
				for _, k := range rk {
					if t.Atoms[k].IsNull() {
						continue rows
					}
				}
				key := t.KeyOn(rk)
				table[key] = append(table[key], ri)
			}
		}

		sw, err := newSpillWriter(ec, op)
		if err != nil {
			release()
			return nil, err
		}
		for li, lt := range l.Tuples {
			if li&255 == 0 {
				if err := ec.Check(op); err != nil {
					sw.close()
					release()
					return nil, err
				}
			}
			var cand []int
			if table != nil {
				allKeys := true
				for _, k := range lk {
					if lt.Atoms[k].IsNull() {
						allKeys = false
						break
					}
				}
				if allKeys {
					cand = table[lt.KeyOn(lk)]
				}
			}
			next := lo // nested-loop fallback cursor
			for {
				var ri int
				if table != nil {
					if len(cand) == 0 {
						break
					}
					ri, cand = cand[0], cand[1:]
				} else {
					if next >= hi {
						break
					}
					ri = next
					next++
				}
				joined := concatNested(lt, r.Tuples[ri])
				if check != nil {
					tri, err := check.Truth(joined)
					if err != nil {
						sw.close()
						release()
						return nil, &QueryError{Op: op, Err: err}
					}
					if !tri.IsTrue() {
						continue
					}
				}
				if matched != nil {
					matched[li] = true
				}
				if err := sw.writeRecord(uint64(li), joined); err != nil {
					sw.close()
					release()
					return nil, &QueryError{Op: op, Err: err}
				}
			}
		}
		n, err := sw.finish()
		release()
		if err != nil {
			sw.close()
			return nil, err
		}
		ec.NoteSpill(n)
		readers = append(readers, newSpillReader(ec, op, sw.f, schema))
	}

	// Merge: per probe index, chunk files in chunk (= build) order. Each
	// reader holds one lookahead record; its tags are non-decreasing
	// because phase 2 scanned probes in order.
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
	out = relation.New(schema)
	for li, lt := range l.Tuples {
		if li&1023 == 0 {
			if err := ec.Check(op); err != nil {
				return nil, err
			}
		}
		for w := range readers {
			for alive[w] && tags[w] == uint64(li) {
				out.Append(heads[w])
				if err := advance(w); err != nil {
					return nil, err
				}
			}
		}
		if outer && !matched[li] {
			out.Append(concatNested(lt, pad))
		}
	}
	return out, nil
}
