package exec

import (
	"nra/internal/expr"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/vec"
)

// VecHashJoin is the batched-probe hash equi-join: the build side is
// hashed once with the vectorized key hasher, then the probe side is
// processed in BatchSize windows, verifying bucket candidates with the
// canonical key equality. Matches are collected as (left, right) row
// index arrays and the output columns are typed gathers over them — no
// row is boxed. Output order is identical to the row engine's serial
// hash join — probe order, matches in build-row order, unmatched probes
// padded with NULLs when outer.
//
// lb/rb optionally supply already-converted batches of l and r (the
// planner's batch cache); nil converts on the spot. The output batch ob
// is returned alongside the materialized relation so downstream batch
// operators can skip re-conversion.
//
// A non-empty reason means the join shape has no batch kernel (nested
// input, no equi-keys, a residual condition, or duplicate output
// columns) and the caller must run the row path; out is then nil and
// err is nil.
func VecHashJoin(ec *ExecContext, l, r *relation.Relation, lb, rb *vec.Batch, on expr.Expr, outer bool) (out *relation.Relation, ob *vec.Batch, reason string, err error) {
	defer Guard("vecjoin", &err)
	lk, rk, residual := extractEquiKeys(on, l.Schema, r.Schema)
	if len(lk) == 0 {
		return nil, nil, "no equi-join keys", nil
	}
	if residual != nil {
		return nil, nil, "non-equi residual condition", nil
	}
	var ok bool
	if lb == nil {
		if lb, ok = vec.FromRelation(l); !ok {
			return nil, nil, "nested input", nil
		}
	}
	if rb == nil {
		if rb, ok = vec.FromRelation(r); !ok {
			return nil, nil, "nested input", nil
		}
	}

	schema := &relation.Schema{Name: l.Schema.Name}
	schema.Cols = append(append([]relation.Column{}, l.Schema.Cols...), r.Schema.Cols...)
	seen := make(map[string]bool, len(schema.Cols))
	for _, c := range schema.Cols {
		if seen[c.Name] {
			// The row path raises the real error; fall back to it.
			return nil, nil, "duplicate output column", nil
		}
		seen[c.Name] = true
	}

	var sp *obsv.Span
	if ec.Tracing() {
		op := "join"
		if outer {
			op = "outer join"
		}
		sp = ec.StartSpan(op, obsv.KindJoin)
		sp.AddRowsIn(int64(l.Len() + r.Len()))
		defer func() {
			if out != nil {
				sp.AddRowsOut(int64(out.Len()))
			}
			sp.End()
		}()
	}

	// Build: hash the right side, skipping NULL-key rows (a NULL key
	// component never matches under SQL equality).
	nr := r.Len()
	buildHash := make([]uint64, nr)
	vec.HashRows(rb.Cols, rk, 0, nr, buildHash)
	buckets := make(map[uint64][]int32, nr)
build:
	for i := 0; i < nr; i++ {
		for _, k := range rk {
			if rb.Cols[k].IsNull(i) {
				continue build
			}
		}
		buckets[buildHash[i]] = append(buckets[buildHash[i]], int32(i))
	}

	// Probe in batch windows, collecting match index pairs; ri -1 is the
	// outer-join padding row.
	nl := l.Len()
	li := make([]int32, 0, nl)
	ri := make([]int32, 0, nl)
	probeHash := make([]uint64, BatchSize)
	for start := 0; start < nl; start += BatchSize {
		end := start + BatchSize
		if end > nl {
			end = nl
		}
		if err := ec.Check("join/probe"); err != nil {
			return nil, nil, "", err
		}
		sp.AddBatches(1)
		vec.HashRows(lb.Cols, lk, start, end, probeHash)
	probe:
		for i := start; i < end; i++ {
			for _, k := range lk {
				if lb.Cols[k].IsNull(i) {
					if outer {
						li = append(li, int32(i))
						ri = append(ri, -1)
					}
					continue probe
				}
			}
			matched := false
			for _, bi := range buckets[probeHash[i-start]] {
				ok := true
				for ki := range lk {
					if !vec.KeyEqualAt(lb.Cols[lk[ki]], i, rb.Cols[rk[ki]], int(bi)) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				matched = true
				li = append(li, int32(i))
				ri = append(ri, bi)
			}
			if outer && !matched {
				li = append(li, int32(i))
				ri = append(ri, -1)
			}
		}
	}

	cols := make([]*vec.Vector, 0, len(schema.Cols))
	for _, v := range lb.Cols {
		cols = append(cols, vec.Gather(v, li))
	}
	for _, v := range rb.Cols {
		cols = append(cols, vec.Gather(v, ri))
	}
	ob = &vec.Batch{Schema: schema, Cols: cols, Start: 0, End: len(li)}
	return ob.ToRelation(), ob, "", nil
}
