package opt

import "math"

// The cost model prices plans in abstract tuple-touch units — one unit
// per tuple read or written by an operator, with a constant overhead
// factor on hash builds. Absolute values are meaningless; only the
// comparison between two candidate plans for the same query matters, so
// the constants need to rank alternatives correctly rather than predict
// wall-clock time.
const (
	// HashBuildWeight inflates build-side tuples: inserting into a hash
	// table costs more than streaming past a probe tuple.
	HashBuildWeight = 1.5
	// TupleOverhead mirrors exec.TupleBytes' fixed per-tuple bytes, used
	// when translating estimated rows into working-state bytes.
	TupleOverhead = 48
)

// HashJoinCost prices a hash join: build the smaller side, stream the
// probe side, write the output.
func HashJoinCost(build, probe, out float64) float64 {
	return HashBuildWeight*build + probe + out
}

// SortCost prices an n·log₂(n) comparison sort.
func SortCost(n float64) float64 {
	if n < 2 {
		return n
	}
	return n * math.Log2(n)
}

// NestLinkCost prices the fused nest + linking selection: sort the
// joined relation by the nest keys, one scan evaluating the linking
// predicate, write the survivors.
func NestLinkCost(n, out float64) float64 {
	return SortCost(n) + n + out
}

// SemiJoinCost prices the §4.2.5 positive rewrite: a hash semijoin with
// the reduced child as build side.
func SemiJoinCost(build, probe, out float64) float64 {
	return HashJoinCost(build, probe, out)
}

// DistinctCost prices hash-based duplicate elimination over n tuples:
// one hash build over the input. The §4.2.5 inner-block rewrite pays it
// to restore the pre-join multiset — unless the query's output is a set,
// in which case the planner elides the operator and this cost.
func DistinctCost(n float64) float64 {
	return HashBuildWeight * n
}

// EstBytes converts an estimated row count and per-tuple payload width
// into the working-state bytes the resource governor would account.
func EstBytes(rows, width float64) float64 {
	return rows * (width + TupleOverhead)
}
