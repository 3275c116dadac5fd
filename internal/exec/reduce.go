package exec

import (
	"fmt"

	"nra/internal/expr"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/value"
)

// Reduce is the row engine's single-table block reduction
// π_cols(σ_pred(rel)) in one pass over rel, with no intermediate
// relation between the selection and the projection. A nil pred keeps every tuple (3VL: only
// True passes otherwise); nil cols keeps every column. Output order is
// input order.
//
// The pass observes cancellation every 256 tuples (checkpoint "scan")
// and, under a tracer, records a "scan <table>" span whose rows in are
// rel's cardinality and rows out the tuples read before the pass ended.
func Reduce(ec *ExecContext, rel *relation.Relation, pred expr.Expr, cols []string) (out *relation.Relation, err error) {
	defer Guard("reduce", &err)
	read := 0
	if ec.Tracing() {
		sp := ec.StartSpan("scan "+rel.Schema.Name, obsv.KindScan)
		defer func() {
			sp.AddRowsIn(int64(rel.Len()))
			sp.AddRowsOut(int64(read))
			sp.End()
		}()
	}
	var filter *expr.Compiled
	if pred != nil {
		if filter, err = expr.Compile(pred, rel.Schema); err != nil {
			return nil, fmt.Errorf("filter: %w", err)
		}
	}
	schema, idx := rel.Schema, []int(nil)
	if cols != nil {
		schema = &relation.Schema{Name: rel.Schema.Name}
		for _, c := range cols {
			j := rel.Schema.ColIndex(c)
			if j < 0 {
				return nil, fmt.Errorf("project: no column %q in %s", c, rel.Schema)
			}
			idx = append(idx, j)
			schema.Cols = append(schema.Cols, rel.Schema.Cols[j])
		}
	}
	out = relation.New(schema)
	// One reused evaluation frame: passing a fresh variadic tuple per
	// call would allocate for every scanned tuple.
	frame := make([]relation.Tuple, 1)
	for ; ; read++ {
		if read&255 == 0 {
			if err := ec.Check("scan"); err != nil {
				return nil, err
			}
		}
		if read >= rel.Len() {
			return out, nil
		}
		t := rel.Tuples[read]
		if filter != nil {
			frame[0] = t
			tri, err := filter.Truth(frame...)
			if err != nil {
				return nil, err
			}
			if !tri.IsTrue() {
				continue
			}
		}
		if cols != nil {
			p := relation.Tuple{Atoms: make([]value.Value, len(idx))}
			for i, j := range idx {
				p.Atoms[i] = t.Atoms[j]
			}
			t = p
		}
		out.Append(t)
	}
}
