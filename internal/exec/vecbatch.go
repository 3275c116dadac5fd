package exec

import (
	"fmt"

	"nra/internal/expr"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/vec"
)

// BatchSize is the number of rows per batch window. It is a multiple of
// 64 so NULL-bitmap windows slice on word boundaries.
const BatchSize = 1024

// SegPrune tells a scan which segment row groups its predicate has
// already disproved via zone maps (colstore.PruneGroups): group g
// covers rows [g*GroupRows, (g+1)*GroupRows) and is skipped when
// Skip[g] is true. The scan only ever *narrows* with it — skipped rows
// are rows the caller proved can never pass the filter that runs
// downstream — so a nil SegPrune is always safe. GroupRows must be a
// multiple of 64 (the segment writer enforces this) so group
// boundaries preserve the bitmap word alignment batch kernels need.
type SegPrune struct {
	GroupRows int
	Skip      []bool
}

// skips reports whether the group holding absolute row r is pruned.
func (p *SegPrune) skips(r int) bool {
	if p == nil {
		return false
	}
	g := r / p.GroupRows
	return g < len(p.Skip) && p.Skip[g]
}

// VecReduce is the vectorized single-table block reduction — the batch
// counterpart of Reduce: scan window → predicate kernel → selection →
// projection, one ec.Check("scan") per window. The
// surviving rows are gathered into dense typed columns, so no row is
// boxed until the final materialization; the output batch ob is
// returned alongside the relation so downstream batch operators can
// skip re-conversion. A non-empty reason means the batch engine does
// not apply (nested input, or a predicate with no batch kernel) and the
// caller must run the row path; out is then nil and err is nil.
//
// prune, when non-nil, is the zone-map verdict on pred over the
// table's backing segment (colstore.PruneGroups): row groups proved
// free of matches. It is applied only when the compiled-predicate
// batch path actually runs — the row fallback scans everything, so a
// predicate the batch engine cannot compile costs correctness nothing.
func VecReduce(ec *ExecContext, base *relation.Relation, pred expr.Expr, cols []string, colsrc func(int) *vec.Vector, prune *SegPrune) (out *relation.Relation, ob *vec.Batch, reason string, err error) {
	defer Guard("reduce", &err)
	// Convert only the columns the predicate reads or the projection
	// keeps: base tables are wide, the reduction touches a handful.
	needed := make([]bool, len(base.Schema.Cols))
	var vp *vec.Pred
	if pred != nil {
		p, ok := vec.CompilePred(pred, base.Schema)
		if !ok {
			return nil, nil, "predicate has no batch kernel", nil
		}
		vp = p
		if !vec.MarkCols(pred, base.Schema, needed) {
			needed = nil // compiled but unmarkable: convert everything
		}
	}
	for _, c := range cols {
		j := base.Schema.ColIndex(c)
		if j < 0 || needed == nil {
			needed = nil
			break
		}
		needed[j] = true
	}
	src, ok := vecColumns(base, needed, colsrc)
	if !ok {
		return nil, nil, "nested input", nil
	}
	n, read, batches := base.Len(), 0, 0
	if ec.Tracing() {
		sp := ec.StartSpan("scan "+base.Schema.Name, obsv.KindScan)
		defer func() {
			sp.AddBatches(int64(batches))
			sp.AddRowsIn(int64(n))
			sp.AddRowsOut(int64(read))
			sp.End()
		}()
	}
	schema := &relation.Schema{Name: base.Schema.Name}
	full := make([]*vec.Vector, len(cols))
	for i, c := range cols {
		j := base.Schema.ColIndex(c)
		if j < 0 {
			return nil, nil, "", fmt.Errorf("project: no column %q in %s", c, base.Schema)
		}
		schema.Cols = append(schema.Cols, base.Schema.Cols[j])
		full[i] = src[j]
	}
	// Zone-map pruning is sound only because the predicate would reject
	// every row of a pruned group anyway; without a compiled predicate
	// no groups were proved prunable (PruneGroups needs the same
	// predicate).
	if vp == nil || prune == nil || prune.GroupRows <= 0 || prune.GroupRows%64 != 0 || len(prune.Skip) == 0 {
		prune = nil
	}
	// Scan BatchSize-row windows, clamped to row-group boundaries under
	// pruning; pruned groups are jumped without touching their vectors —
	// the catalog's lazy column store only decodes what a window reads.
	// The projected vectors are the same full-height columns in every
	// window, so only the selected absolute rows accumulate.
	sel := make([]int32, 0, n)
	for pos := 0; ; {
		for pos < n && prune.skips(pos) {
			pos = (pos/prune.GroupRows + 1) * prune.GroupRows
		}
		if pos >= n {
			break
		}
		if err := ec.Check("scan"); err != nil {
			return nil, nil, "", err
		}
		end := min(pos+BatchSize, n)
		if prune != nil {
			end = min(end, (pos/prune.GroupRows+1)*prune.GroupRows)
		}
		batches++
		read += end - pos
		if vp == nil {
			for i := pos; i < end; i++ {
				sel = append(sel, int32(i))
			}
		} else {
			tv, err := vp.Eval(src, pos, end)
			if err != nil {
				return nil, nil, "", fmt.Errorf("filter: %w", err)
			}
			for i := pos; i < end; i++ {
				if tv.True.Get(i - pos) {
					sel = append(sel, int32(i))
				}
			}
		}
		pos = end
	}
	if read == 0 {
		// Empty input: no window was scanned; empty boxed columns keep
		// the batch well-formed for downstream operators.
		for i := range full {
			full[i] = vec.FromValues(nil)
		}
	}
	if len(sel) == n && n > 0 {
		// Nothing filtered: the projected full-height vectors are the
		// output as-is.
		ob = &vec.Batch{Schema: schema, Cols: full, Start: 0, End: n}
	} else {
		gathered := make([]*vec.Vector, len(full))
		for i, v := range full {
			gathered[i] = vec.Gather(v, sel)
		}
		ob = &vec.Batch{Schema: schema, Cols: gathered, Start: 0, End: len(sel)}
	}
	return ob.ToRelation(), ob, "", nil
}

// vecColumns returns base's column vectors for the columns marked in
// needed (nil = all); unmarked columns stay nil. colsrc, when non-nil,
// supplies each vector — the catalog's memoized per-version column
// store — so repeated scans of one table version skip the row-to-column
// conversion. ok is false for nested input, which the batch
// representation does not model.
func vecColumns(base *relation.Relation, needed []bool, colsrc func(int) *vec.Vector) (cols []*vec.Vector, ok bool) {
	if colsrc == nil {
		b, ok := vec.FromRelationCols(base, needed)
		if !ok {
			return nil, false
		}
		return b.Cols, true
	}
	if len(base.Schema.Subs) > 0 {
		return nil, false
	}
	cols = make([]*vec.Vector, len(base.Schema.Cols))
	for c := range cols {
		if needed == nil || needed[c] {
			cols[c] = colsrc(c)
		}
	}
	return cols, true
}
