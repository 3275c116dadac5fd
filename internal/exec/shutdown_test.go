package exec

// Shutdown semantics: Close on the streaming join operator must be a
// safe no-op before Open and after a previous Close and must close both
// inputs exactly once, whether it is called before the first Next or
// mid-stream.

import (
	"math/rand"
	"testing"

	"nra/internal/algebra"
	"nra/internal/expr"
	"nra/internal/relation"
)

// countingIter counts Open/Close calls on a wrapped iterator, to assert
// parents honour the close-exactly-once contract.
type countingIter struct {
	inner  Iterator
	opens  int
	closes int
}

func (c *countingIter) Open(ec *ExecContext) error          { c.opens++; return c.inner.Open(ec) }
func (c *countingIter) Next() (relation.Tuple, bool, error) { return c.inner.Next() }
func (c *countingIter) Schema() *relation.Schema            { return c.inner.Schema() }
func (c *countingIter) Close() error                        { c.closes++; return c.inner.Close() }

func shutdownInputs(t *testing.T) (*relation.Relation, *relation.Relation, expr.Expr) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	l := randomRel("l", []string{"a", "x"}, 400, rng, 0.1, 25)
	r := randomRel("r", []string{"b", "y"}, 500, rng, 0.1, 25)
	return l, r, expr.Compare(expr.Eq, expr.Col("a"), expr.Col("b"))
}

// closeScenarios drives an iterator through the three early-Close shapes
// — before Open, before the first Next, and mid-stream — asserting a
// double Close stays a no-op and both inputs close exactly once per
// cycle, then re-opens it and checks a full drain still matches want.
func closeScenarios(t *testing.T, mk func() (Iterator, *countingIter, *countingIter), want *relation.Relation) {
	t.Helper()

	t.Run("close before open", func(t *testing.T) {
		it, li, ri := mk()
		for i := 0; i < 2; i++ {
			if err := it.Close(); err != nil {
				t.Fatalf("close #%d: %v", i+1, err)
			}
		}
		if li.closes != 1 || ri.closes != 1 {
			t.Fatalf("inputs closed %d/%d times, want exactly once", li.closes, ri.closes)
		}
	})

	t.Run("close before first next", func(t *testing.T) {
		it, li, ri := mk()
		if err := it.Open(Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := it.Close(); err != nil {
				t.Fatalf("close #%d: %v", i+1, err)
			}
		}
		if li.closes != 1 || ri.closes != 1 {
			t.Fatalf("inputs closed %d/%d times, want exactly once", li.closes, ri.closes)
		}
	})

	t.Run("close mid-stream", func(t *testing.T) {
		it, li, ri := mk()
		if err := it.Open(Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				t.Fatalf("next #%d: ok=%v err=%v", i+1, ok, err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := it.Close(); err != nil {
				t.Fatalf("close #%d: %v", i+1, err)
			}
		}
		if li.closes != 1 || ri.closes != 1 {
			t.Fatalf("inputs closed %d/%d times, want exactly once", li.closes, ri.closes)
		}
	})

	t.Run("reopen after close", func(t *testing.T) {
		it, _, _ := mk()
		if err := it.Open(Background()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Drain(Background(), it) // Drain re-Opens
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSeq(t, "reopen", got, want)
	})
}

func TestHashJoinCloseSemantics(t *testing.T) {
	l, r, on := shutdownInputs(t)
	want, err := algebra.LeftOuterJoin(l, r, on)
	if err != nil {
		t.Fatal(err)
	}
	closeScenarios(t, func() (Iterator, *countingIter, *countingIter) {
		li := &countingIter{inner: NewScan(l)}
		ri := &countingIter{inner: NewScan(r)}
		return NewHashJoin(li, ri, on, true), li, ri
	}, want)
}
