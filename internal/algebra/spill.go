package algebra

import "nra/internal/relation"

// SpillChunks splits tuples into consecutive ranges whose summed weight
// (per the given sizing function) stays within maxBytes each, always
// admitting at least one tuple per chunk so a single oversized tuple
// cannot stall progress. It returns range bounds: chunk i is
// tuples[bounds[i]:bounds[i+1]], and len(bounds) ≥ 2 even for empty
// input.
//
// This is the spill-safe partitioning contract the budget-governed
// executor relies on: chunks are *consecutive* input ranges, so
// processing chunks in order preserves the input order — a chunked
// build side replays the in-memory hash join's match order (buckets list
// build rows ascending), and external-sort runs over consecutive ranges
// plus an original-position tie-break reproduce a stable sort exactly.
// Any future spill strategy must preserve this order property or results
// would depend on the memory budget.
func SpillChunks(tuples []relation.Tuple, weight func(relation.Tuple) int64, maxBytes int64) []int {
	bounds := []int{0}
	var acc int64
	for i, t := range tuples {
		w := weight(t)
		if acc > 0 && acc+w > maxBytes {
			bounds = append(bounds, i)
			acc = 0
		}
		acc += w
	}
	return append(bounds, len(tuples))
}
