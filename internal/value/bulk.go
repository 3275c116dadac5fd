package value

// Bulk columnar helpers: conversion of []Value columns into typed payload
// arrays with NULL bitmaps, and bitmap-aware comparison kernels over those
// arrays. These are the value-layer primitives the vectorized execution
// engine (internal/vec) builds its batches and predicate kernels on.
//
// A NULL bitmap is a []uint64 with bit i (word i/64, bit i%64) set when
// row i is NULL. The comparison kernels ignore NULL positions — they
// compute payload comparisons for every row — and the caller masks the
// result with the bitmap afterwards (NULL rows read as Unknown), which
// keeps the inner loops branch-free.

// NullWords returns the number of uint64 words a NULL bitmap over n rows
// needs.
func NullWords(n int) int { return (n + 63) / 64 }

// PayloadInt returns the integer payload word (0/1 for booleans) without
// checking the kind — for extraction loops that have already dispatched
// on Kind. The pointer receiver keeps bulk loops from copying the value
// struct (and its string header, with the write barrier that entails).
func (v *Value) PayloadInt() int64 { return v.i }

// PayloadFloat returns the float payload without checking the kind; see
// PayloadInt.
func (v *Value) PayloadFloat() float64 { return v.f }

// PayloadString returns the string payload without checking the kind;
// see PayloadInt.
func (v *Value) PayloadString() string { return v.s }

// setBit sets bit i of a bitmap.
func setBit(words []uint64, i int) { words[i>>6] |= 1 << (uint(i) & 63) }

// SetInt64 overwrites v in place with a non-NULL integer, touching only
// the kind and integer payload. Over a freshly zeroed backing array the
// string header stays zero, so the store carries no pointer and incurs
// no GC write barrier — the point of these setters over whole-struct
// assignment in bulk materialization loops (a NULL cell needs no write
// at all: the zero Value is NULL).
func (v *Value) SetInt64(x int64) { v.kind = KindInt; v.i = x }

// SetBool is SetInt64 for booleans (payload 0/1).
func (v *Value) SetBool(b bool) {
	v.kind = KindBool
	if b {
		v.i = 1
	} else {
		v.i = 0
	}
}

// SetFloat64 is SetInt64 for floats.
func (v *Value) SetFloat64(x float64) { v.kind = KindFloat; v.f = x }

// SetText is SetInt64 for strings. This one does write a pointer (the
// shared dictionary string's header), so it keeps the write barrier.
func (v *Value) SetText(s string) { v.kind = KindString; v.s = s }

// BulkKind scans one column of values and returns the kind of its first
// non-NULL value, with mixed=true when a later non-NULL value has a
// different kind (the column cannot be stored as one typed payload
// array). An all-NULL column reports (KindNull, false).
func BulkKind(vs []Value) (k Kind, mixed bool) {
	k = KindNull
	for _, v := range vs {
		if v.kind == KindNull {
			continue
		}
		if k == KindNull {
			k = v.kind
			continue
		}
		if v.kind != k {
			return k, true
		}
	}
	return k, false
}

// BulkInts extracts a KindInt column into data (0 at NULL rows) and the
// NULL bitmap nulls. It reports false when a non-NULL, non-integer value
// is found, leaving partial output behind. data must have len(vs)
// elements and nulls NullWords(len(vs)) zeroed words.
func BulkInts(vs []Value, data []int64, nulls []uint64) bool {
	for i, v := range vs {
		switch v.kind {
		case KindNull:
			setBit(nulls, i)
		case KindInt:
			data[i] = v.i
		default:
			return false
		}
	}
	return true
}

// BulkFloats extracts a KindFloat column; see BulkInts for the contract.
func BulkFloats(vs []Value, data []float64, nulls []uint64) bool {
	for i, v := range vs {
		switch v.kind {
		case KindNull:
			setBit(nulls, i)
		case KindFloat:
			data[i] = v.f
		default:
			return false
		}
	}
	return true
}

// BulkStrings extracts a KindString column; see BulkInts for the contract.
func BulkStrings(vs []Value, data []string, nulls []uint64) bool {
	for i, v := range vs {
		switch v.kind {
		case KindNull:
			setBit(nulls, i)
		case KindString:
			data[i] = v.s
		default:
			return false
		}
	}
	return true
}

// BulkBools extracts a KindBool column into 0/1 payloads; see BulkInts
// for the contract.
func BulkBools(vs []Value, data []int64, nulls []uint64) bool {
	for i, v := range vs {
		switch v.kind {
		case KindNull:
			setBit(nulls, i)
		case KindBool:
			data[i] = v.i
		default:
			return false
		}
	}
	return true
}

// CmpVerb names one of the six SQL comparison verbs for the bulk kernels
// (mirroring expr's operator set without importing it).
type CmpVerb uint8

// The comparison verbs, in expr's operator order.
const (
	VerbEq CmpVerb = iota
	VerbNe
	VerbLt
	VerbLe
	VerbGt
	VerbGe
)

// Holds reports whether a three-way comparison result c (as returned by
// Compare) satisfies the verb.
func (v CmpVerb) Holds(c int) bool {
	switch v {
	case VerbEq:
		return c == 0
	case VerbNe:
		return c != 0
	case VerbLt:
		return c < 0
	case VerbLe:
		return c <= 0
	case VerbGt:
		return c > 0
	case VerbGe:
		return c >= 0
	}
	return false
}

// CmpInt64Const sets bit i of out when data[i] verb c holds, ignoring
// NULLs (the caller masks). out must have NullWords(len(data)) zeroed
// words.
func CmpInt64Const(verb CmpVerb, data []int64, c int64, out []uint64) {
	switch verb {
	case VerbEq:
		for i, d := range data {
			if d == c {
				setBit(out, i)
			}
		}
	case VerbNe:
		for i, d := range data {
			if d != c {
				setBit(out, i)
			}
		}
	case VerbLt:
		for i, d := range data {
			if d < c {
				setBit(out, i)
			}
		}
	case VerbLe:
		for i, d := range data {
			if d <= c {
				setBit(out, i)
			}
		}
	case VerbGt:
		for i, d := range data {
			if d > c {
				setBit(out, i)
			}
		}
	case VerbGe:
		for i, d := range data {
			if d >= c {
				setBit(out, i)
			}
		}
	}
}

// CmpFloat64Const is CmpInt64Const over float payloads (integer operands
// are widened by the caller, as Compare does). The verbs are expressed
// through the same three-way ordering Compare uses, so NaN payloads —
// which order as "neither less nor greater" there — satisfy exactly the
// verbs the row engine says they do.
func CmpFloat64Const(verb CmpVerb, data []float64, c float64, out []uint64) {
	switch verb {
	case VerbEq:
		for i, d := range data {
			if !(d < c) && !(d > c) {
				setBit(out, i)
			}
		}
	case VerbNe:
		for i, d := range data {
			if d < c || d > c {
				setBit(out, i)
			}
		}
	case VerbLt:
		for i, d := range data {
			if d < c {
				setBit(out, i)
			}
		}
	case VerbLe:
		for i, d := range data {
			if !(d > c) {
				setBit(out, i)
			}
		}
	case VerbGt:
		for i, d := range data {
			if d > c {
				setBit(out, i)
			}
		}
	case VerbGe:
		for i, d := range data {
			if !(d < c) {
				setBit(out, i)
			}
		}
	}
}

// CmpInt64AsFloat64Const compares integer payloads against a float
// constant after widening — the int-vs-float case of Compare. Like
// CmpFloat64Const it goes through the three-way ordering so a NaN
// constant behaves exactly as it does in Compare.
func CmpInt64AsFloat64Const(verb CmpVerb, data []int64, c float64, out []uint64) {
	switch verb {
	case VerbEq:
		for i, d := range data {
			if f := float64(d); !(f < c) && !(f > c) {
				setBit(out, i)
			}
		}
	case VerbNe:
		for i, d := range data {
			if f := float64(d); f < c || f > c {
				setBit(out, i)
			}
		}
	case VerbLt:
		for i, d := range data {
			if float64(d) < c {
				setBit(out, i)
			}
		}
	case VerbLe:
		for i, d := range data {
			if !(float64(d) > c) {
				setBit(out, i)
			}
		}
	case VerbGt:
		for i, d := range data {
			if float64(d) > c {
				setBit(out, i)
			}
		}
	case VerbGe:
		for i, d := range data {
			if !(float64(d) < c) {
				setBit(out, i)
			}
		}
	}
}

// CmpInt64s is the column-against-column form of CmpInt64Const.
func CmpInt64s(verb CmpVerb, a, b []int64, out []uint64) {
	for i := range a {
		if verb.Holds(cmpOrdered(a[i], b[i])) {
			setBit(out, i)
		}
	}
}

// CmpFloat64s is the column-against-column form of CmpFloat64Const.
func CmpFloat64s(verb CmpVerb, a, b []float64, out []uint64) {
	for i := range a {
		if verb.Holds(cmpOrdered(a[i], b[i])) {
			setBit(out, i)
		}
	}
}
