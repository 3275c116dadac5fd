package algebra

import (
	"testing"

	"nra/internal/relation"
)

func TestSpillChunks(t *testing.T) {
	rel := relation.MustFromRows("r", []string{"k"}, []any{1}, []any{2}, []any{3}, []any{4}, []any{5})
	w := func(t relation.Tuple) int64 { return t.Atoms[0].Int64() }
	cases := []struct {
		max  int64
		want []int
	}{
		{100, []int{0, 5}},           // everything fits one chunk
		{5, []int{0, 2, 3, 4, 5}},    // 1+2 | 3 | 4 | 5
		{1, []int{0, 1, 2, 3, 4, 5}}, // oversized tuples still get a chunk each
	}
	for _, c := range cases {
		got := SpillChunks(rel.Tuples, w, c.max)
		if len(got) != len(c.want) {
			t.Fatalf("max=%d: bounds %v, want %v", c.max, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("max=%d: bounds %v, want %v", c.max, got, c.want)
			}
		}
	}
	if got := SpillChunks(nil, w, 10); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty input: bounds %v, want [0 0]", got)
	}
}
