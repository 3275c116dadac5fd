package vec

import (
	"nra/internal/relation"
	"nra/internal/value"
)

// Batch is a window of rows over a set of column vectors. The vectors
// are full-height (one entry per relation row) and shared between the
// windows of one scan; Start/End delimit the window and Sel optionally
// restricts it further to an ascending list of absolute row indexes.
// A non-nil empty Sel means "no rows selected" — distinct from nil,
// which means "every row in the window".
type Batch struct {
	// Schema describes the columns (always flat: no nested attributes).
	Schema *relation.Schema
	// Cols holds one vector per schema column.
	Cols []*Vector
	// Start and End delimit the window [Start, End) of rows this batch
	// covers. Kernel callers keep Start 64-aligned so NULL-bitmap
	// windows slice on word boundaries.
	Start, End int
	// Sel, when non-nil, lists the selected absolute row indexes within
	// the window, ascending.
	Sel []int32
	// Offsets optionally carries per-level group-offset arrays for the
	// fused nest+link chain: Offsets[l][g] is the position (into the
	// sorted row order) where level-l group g starts, with a final
	// sentinel entry at the row count.
	Offsets [][]int32
}

// FromRelation converts a flat relation into a single whole-relation
// batch. ok is false when the schema has nested attributes, which the
// batch representation does not model — callers fall back to the row
// engine.
func FromRelation(rel *relation.Relation) (*Batch, bool) {
	return FromRelationCols(rel, nil)
}

// FromRelationCols converts only the columns marked in needed (nil = all
// of them); pruned entries stay nil, which is safe for kernels that never
// touch them. Wide base tables make this the difference between paying
// for every column and paying for the handful the query reads.
func FromRelationCols(rel *relation.Relation, needed []bool) (*Batch, bool) {
	if len(rel.Schema.Subs) > 0 {
		return nil, false
	}
	n := rel.Len()
	cols := make([]*Vector, len(rel.Schema.Cols))
	for c := range cols {
		if needed != nil && !needed[c] {
			continue
		}
		cols[c] = columnVector(rel.Tuples, c)
	}
	return &Batch{Schema: rel.Schema, Cols: cols, Start: 0, End: n}, true
}

// ColumnVector extracts column c of the tuples into a typed vector —
// the public entry point for callers that memoize per-column
// conversions (catalog table versions are copy-on-write, so a version's
// converted columns never go stale).
func ColumnVector(tuples []relation.Tuple, c int) *Vector {
	return columnVector(tuples, c)
}

// columnVector extracts column c of the tuples into a typed vector. It
// reads each atom in place through pointer accessors — staging the
// column into a []value.Value first would copy a 5-word struct with a
// string header per cell, and the write barriers on those copies cost
// more than the extraction itself. The column-at-a-time order keeps each
// inner loop a tight, branch-predictable stream (a row-major pass that
// fills all columns at once measures ~20% slower end to end).
func columnVector(tuples []relation.Tuple, c int) *Vector {
	n := len(tuples)
	v := &Vector{Nulls: NewBitmap(n), n: n}
	k := value.KindNull
	for i := range tuples {
		if kk := tuples[i].Atoms[c].Kind(); kk != value.KindNull {
			k = kk
			break
		}
	}
	v.Kind = k
	switch k {
	case value.KindNull: // all-NULL column: boxed, every bit set
		v.Vals = make([]value.Value, n)
		for i := 0; i < n; i++ {
			v.Nulls.Set(i)
		}
	case value.KindInt, value.KindBool:
		v.Ints = make([]int64, n)
		for i := range tuples {
			a := &tuples[i].Atoms[c]
			switch a.Kind() {
			case k:
				v.Ints[i] = a.PayloadInt()
			case value.KindNull:
				v.Nulls.Set(i)
			default:
				return boxedColumn(tuples, c)
			}
		}
	case value.KindFloat:
		v.Floats = make([]float64, n)
		for i := range tuples {
			a := &tuples[i].Atoms[c]
			switch a.Kind() {
			case value.KindFloat:
				v.Floats[i] = a.PayloadFloat()
			case value.KindNull:
				v.Nulls.Set(i)
			default:
				return boxedColumn(tuples, c)
			}
		}
	case value.KindString:
		v.Codes = make([]int32, n)
		codes := make(map[string]int32, 64)
		for i := range tuples {
			a := &tuples[i].Atoms[c]
			switch a.Kind() {
			case value.KindString:
				s := a.PayloadString()
				code, ok := codes[s]
				if !ok {
					code = int32(len(v.Dict))
					codes[s] = code
					v.Dict = append(v.Dict, s)
				}
				v.Codes[i] = code
			case value.KindNull:
				v.Nulls.Set(i)
			default:
				return boxedColumn(tuples, c)
			}
		}
	}
	return v
}

// boxedColumn is the mixed-kind fallback: the column keeps boxed values
// and every kernel takes its generic path over it.
func boxedColumn(tuples []relation.Tuple, c int) *Vector {
	n := len(tuples)
	v := &Vector{Kind: value.KindNull, Nulls: NewBitmap(n), n: n, Vals: make([]value.Value, n)}
	for i := range tuples {
		v.Vals[i] = tuples[i].Atoms[c]
		if v.Vals[i].IsNull() {
			v.Nulls.Set(i)
		}
	}
	return v
}

// Rows returns the number of selected rows in the window.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.End - b.Start
}

// ToRelation materializes the selected window rows back into a
// relation, preserving order. The atoms of all rows share one backing
// array — one allocation instead of one per row — and the fill is
// column-at-a-time with typed inner loops: non-string cells are written
// through the in-place payload setters, which never touch the string
// header of a freshly zeroed Value and therefore incur no GC write
// barrier, and NULL cells are not written at all (the zero Value is
// NULL).
func (b *Batch) ToRelation() *relation.Relation {
	out := relation.New(b.Schema)
	rows, width := b.Rows(), len(b.Cols)
	if rows == 0 {
		return out
	}
	out.Tuples = make([]relation.Tuple, rows)
	backing := make([]value.Value, rows*width)
	for r := 0; r < rows; r++ {
		out.Tuples[r] = relation.Tuple{Atoms: backing[r*width : r*width+width : r*width+width]}
	}
	idx := b.Sel
	if idx == nil {
		idx = make([]int32, 0, rows)
		for i := b.Start; i < b.End; i++ {
			idx = append(idx, int32(i))
		}
	}
	for c, v := range b.Cols {
		fillColumn(backing[c:], width, v, idx)
	}
	return out
}

// fillColumn writes one output column into the strided backing cells
// dst[0], dst[width], dst[2*width], … reading vector rows idx in order.
func fillColumn(dst []value.Value, width int, v *Vector, idx []int32) {
	switch v.Kind {
	case value.KindInt:
		for j, r := range idx {
			if !v.Nulls.Get(int(r)) {
				dst[j*width].SetInt64(v.Ints[r])
			}
		}
	case value.KindBool:
		for j, r := range idx {
			if !v.Nulls.Get(int(r)) {
				dst[j*width].SetBool(v.Ints[r] != 0)
			}
		}
	case value.KindFloat:
		for j, r := range idx {
			if !v.Nulls.Get(int(r)) {
				dst[j*width].SetFloat64(v.Floats[r])
			}
		}
	case value.KindString:
		for j, r := range idx {
			if !v.Nulls.Get(int(r)) {
				dst[j*width].SetText(v.Dict[v.Codes[r]])
			}
		}
	default: // boxed
		for j, r := range idx {
			dst[j*width] = v.Vals[r]
		}
	}
}

// GroupOffsets returns the group-boundary offsets of rows ord[0..n)
// grouped by the given key columns: off[g] is the position in ord where
// group g starts, plus a final sentinel len(ord). Adjacent rows belong
// to the same group when every key column is KeyEqualAt — the same
// boundary test the row engine's KeyOn comparison performs on sorted
// input. An empty ord yields the single sentinel {0}.
func GroupOffsets(cols []*Vector, ord []int32, keyIdx []int) []int32 {
	if len(ord) == 0 {
		return []int32{0}
	}
	off := make([]int32, 0, 16)
	off = append(off, 0)
	for p := 1; p < len(ord); p++ {
		for _, k := range keyIdx {
			if !KeyEqualAt(cols[k], int(ord[p-1]), cols[k], int(ord[p])) {
				off = append(off, int32(p))
				break
			}
		}
	}
	return append(off, int32(len(ord)))
}
