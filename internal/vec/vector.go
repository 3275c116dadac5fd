package vec

import (
	"math"

	"nra/internal/value"
)

// Vector is one column of a batch: a typed payload array plus a NULL
// bitmap. Kind selects the payload; columns whose non-NULL values mix
// kinds (or are all NULL) fall back to a boxed []value.Value payload
// with Kind == value.KindNull, over which every kernel takes its
// generic path.
type Vector struct {
	// Kind is the payload discriminator; value.KindNull marks the boxed
	// fallback payload in Vals.
	Kind value.Kind
	// Ints holds value.KindInt payloads, and value.KindBool payloads as
	// 0/1.
	Ints []int64
	// Floats holds value.KindFloat payloads.
	Floats []float64
	// Codes holds value.KindString payloads as dictionary codes.
	Codes []int32
	// Dict maps a string column's codes to strings, in first-appearance
	// order.
	Dict []string
	// Nulls has bit i set when row i is NULL (maintained for the boxed
	// fallback too).
	Nulls Bitmap
	// Vals is the boxed fallback payload.
	Vals []value.Value

	n int
}

// FromValues converts one column of values into a Vector. The input
// slice is not retained.
func FromValues(vs []value.Value) *Vector {
	n := len(vs)
	v := &Vector{Nulls: NewBitmap(n), n: n}
	k, mixed := value.BulkKind(vs)
	if mixed || k == value.KindNull {
		v.Kind = value.KindNull
		v.Vals = append([]value.Value(nil), vs...)
		for i, x := range vs {
			if x.IsNull() {
				v.Nulls.Set(i)
			}
		}
		return v
	}
	v.Kind = k
	switch k {
	case value.KindInt:
		v.Ints = make([]int64, n)
		value.BulkInts(vs, v.Ints, v.Nulls)
	case value.KindBool:
		v.Ints = make([]int64, n)
		value.BulkBools(vs, v.Ints, v.Nulls)
	case value.KindFloat:
		v.Floats = make([]float64, n)
		value.BulkFloats(vs, v.Floats, v.Nulls)
	case value.KindString:
		strs := make([]string, n)
		value.BulkStrings(vs, strs, v.Nulls)
		v.Codes = make([]int32, n)
		codes := make(map[string]int32, 64)
		for i, s := range strs {
			if v.Nulls.Get(i) {
				continue
			}
			c, ok := codes[s]
			if !ok {
				c = int32(len(v.Dict))
				codes[s] = c
				v.Dict = append(v.Dict, s)
			}
			v.Codes[i] = c
		}
	}
	return v
}

// Gather returns the dense vector of v's rows at idx, in order. A
// negative index yields NULL — the outer-join padding row. String
// vectors share the dictionary and gather codes, so no string is copied
// or re-hashed; boxed vectors gather the boxed values.
func Gather(v *Vector, idx []int32) *Vector {
	n := len(idx)
	out := &Vector{Kind: v.Kind, Nulls: NewBitmap(n), n: n}
	switch v.Kind {
	case value.KindInt, value.KindBool:
		out.Ints = make([]int64, n)
		for i, j := range idx {
			if j < 0 || v.Nulls.Get(int(j)) {
				out.Nulls.Set(i)
				continue
			}
			out.Ints[i] = v.Ints[j]
		}
	case value.KindFloat:
		out.Floats = make([]float64, n)
		for i, j := range idx {
			if j < 0 || v.Nulls.Get(int(j)) {
				out.Nulls.Set(i)
				continue
			}
			out.Floats[i] = v.Floats[j]
		}
	case value.KindString:
		out.Codes = make([]int32, n)
		out.Dict = v.Dict
		for i, j := range idx {
			if j < 0 || v.Nulls.Get(int(j)) {
				out.Nulls.Set(i)
				continue
			}
			out.Codes[i] = v.Codes[j]
		}
	default: // boxed
		out.Vals = make([]value.Value, n)
		for i, j := range idx {
			if j < 0 {
				out.Nulls.Set(i)
				continue
			}
			out.Vals[i] = v.Vals[j]
			if v.Nulls.Get(int(j)) {
				out.Nulls.Set(i)
			}
		}
	}
	return out
}

// NewVector allocates an all-NULL-clear vector of n rows with the
// payload array for the given kind (value.KindNull allocates the boxed
// fallback). Decoders — the columnar segment reader in
// internal/colstore — fill the payload and NULL bitmap in place.
func NewVector(kind value.Kind, n int) *Vector {
	v := &Vector{Kind: kind, Nulls: NewBitmap(n), n: n}
	switch kind {
	case value.KindInt, value.KindBool:
		v.Ints = make([]int64, n)
	case value.KindFloat:
		v.Floats = make([]float64, n)
	case value.KindString:
		v.Codes = make([]int32, n)
	default:
		v.Vals = make([]value.Value, n)
	}
	return v
}

// Len returns the row count.
func (v *Vector) Len() int { return v.n }

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool { return v.Nulls.Get(i) }

// Value boxes row i back into a value.Value.
func (v *Vector) Value(i int) value.Value {
	if v.Kind == value.KindNull {
		return v.Vals[i]
	}
	if v.Nulls.Get(i) {
		return value.Null
	}
	switch v.Kind {
	case value.KindInt:
		return value.Int(v.Ints[i])
	case value.KindFloat:
		return value.Float(v.Floats[i])
	case value.KindString:
		return value.Str(v.Dict[v.Codes[i]])
	case value.KindBool:
		return value.Bool(v.Ints[i] != 0)
	}
	return value.Null
}

// KeyEqualAt reports whether a's row i and b's row j have equal
// value.AppendKey encodings — the equality the row engine's KeyOn-keyed
// hash tables and group detection use. It coincides with value.Identical
// on everything but NaN payloads, where the canonical encoding compares
// IEEE bit patterns, and the extreme int64/float boundary, where the
// integral-float widening of the encoding is authoritative.
func KeyEqualAt(a *Vector, i int, b *Vector, j int) bool {
	av, bv := a.Value(i), b.Value(j)
	at, ap := keyClass(av)
	bt, bp := keyClass(bv)
	if at != bt {
		return false
	}
	if at == 3 {
		return av.Text() == bv.Text()
	}
	return ap == bp
}

// keyClass returns the value.AppendKey tag and (for fixed-width kinds)
// the 8-byte payload word of v's canonical encoding — the pair two
// values share iff their encodings are equal, string payloads excepted.
func keyClass(v value.Value) (tag uint8, payload uint64) {
	switch v.Kind() {
	case value.KindNull:
		return 0, 0
	case value.KindInt:
		return 1, uint64(v.Int64())
	case value.KindFloat:
		// Integral floats share the integer tag, exactly as AppendKey.
		if f := v.Float64(); f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
			return 1, uint64(int64(f))
		}
		return 2, math.Float64bits(v.Float64())
	case value.KindString:
		return 3, 0
	case value.KindBool:
		if v.Truth().IsTrue() {
			return 4, 1
		}
		return 4, 0
	}
	return 0xff, 0
}
