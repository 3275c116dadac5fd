package exec

import (
	"fmt"

	"nra/internal/expr"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/value"
)

// Join is the executor's θ-join l ⋈_on r (outer=false) or left outer
// join l ⟕_on r (outer=true). It produces exactly algebra.Join /
// algebra.LeftOuterJoin's output, order included:
//
//   - build: a hash table over the right side's equi-key. Tuples with a
//     NULL key component match nothing under SQL equality and are left
//     out.
//   - probe: the left side in input order; within one left tuple, matches
//     follow the right side's input order. Outer-join NULL padding is
//     appended after a left tuple's last match.
//
// A condition with no equality conjunct falls back to a nested-loop
// join. Under a governed context the build side is charged to the memory
// budget first; when it does not fit (or a fault hook or the cost-based
// planner forces the slow path) the join degrades to the chunked grace
// join (joinSpill), whose output is byte-identical. The probe loop
// observes cancellation every 256 tuples.
func Join(ec *ExecContext, l, r *relation.Relation, on expr.Expr, outer bool) (res *relation.Relation, err error) {
	defer Guard("join", &err)
	if ec.Tracing() {
		op := "join"
		if outer {
			op = "outer join"
		}
		sp := ec.StartSpan(op, obsv.KindJoin)
		sp.AddRowsIn(int64(l.Len() + r.Len()))
		defer func() {
			if res != nil {
				sp.AddRowsOut(int64(res.Len()))
			}
			sp.End()
		}()
	}
	schema, err := joinSchema(l.Schema, r.Schema)
	if err != nil {
		return nil, err
	}
	lk, rk, residual := extractEquiKeys(on, l.Schema, r.Schema)
	var check *expr.Compiled
	if residual != nil {
		check, err = expr.Compile(residual, schema)
		if err != nil {
			return nil, fmt.Errorf("join: %w", err)
		}
	}

	if ec.Governed() {
		bytes := tuplesBytes(r.Tuples)
		spill := ec.ForceSpill("join")
		if !spill {
			ok, err := ec.TryReserve("join", bytes)
			if err != nil {
				return nil, err
			}
			if ok {
				defer ec.Release(bytes)
			} else {
				spill = true
			}
		}
		if spill {
			return joinSpill(ec, "join", l, r, lk, rk, check, schema, outer)
		}
	}

	var table map[string][]int
	if len(lk) > 0 {
		table = make(map[string][]int, r.Len())
	rows:
		for ri, t := range r.Tuples {
			for _, k := range rk {
				if t.Atoms[k].IsNull() {
					continue rows
				}
			}
			key := t.KeyOn(rk)
			table[key] = append(table[key], ri)
		}
	}

	out := relation.New(schema)
	pad := nullNested(r.Schema)
	// emit appends lt ++ rt when it passes the residual and reports
	// whether it did.
	emit := func(lt, rt relation.Tuple) (bool, error) {
		joined := concatNested(lt, rt)
		if check != nil {
			tri, err := check.Truth(joined)
			if err != nil || !tri.IsTrue() {
				return false, err
			}
		}
		out.Append(joined)
		return true, nil
	}
	for n, lt := range l.Tuples {
		if n&255 == 0 {
			if err := ec.Check("join/probe"); err != nil {
				return nil, err
			}
		}
		matched := false
		if table == nil {
			for _, rt := range r.Tuples {
				ok, err := emit(lt, rt)
				if err != nil {
					return nil, err
				}
				matched = matched || ok
			}
		} else if key, ok := probeKey(lt, lk); ok {
			for _, ri := range table[key] {
				ok, err := emit(lt, r.Tuples[ri])
				if err != nil {
					return nil, err
				}
				matched = matched || ok
			}
		}
		if outer && !matched {
			out.Append(concatNested(lt, pad))
		}
	}
	return out, nil
}

// probeKey returns t's equi-key, or false when a key component is NULL
// (no match is possible under SQL equality).
func probeKey(t relation.Tuple, keys []int) (string, bool) {
	for _, k := range keys {
		if t.Atoms[k].IsNull() {
			return "", false
		}
	}
	return t.KeyOn(keys), true
}

func joinSchema(l, r *relation.Schema) (*relation.Schema, error) {
	out := &relation.Schema{Name: l.Name}
	out.Cols = append(append([]relation.Column{}, l.Cols...), r.Cols...)
	out.Subs = append(append([]relation.Sub{}, l.Subs...), r.Subs...)
	seen := make(map[string]bool, len(out.Cols))
	for _, c := range out.Cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("join: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	return out, nil
}

// concatNested concatenates two tuples, atoms and nested groups alike.
func concatNested(l, r relation.Tuple) relation.Tuple {
	t := relation.Tuple{Atoms: make([]value.Value, 0, len(l.Atoms)+len(r.Atoms))}
	t.Atoms = append(append(t.Atoms, l.Atoms...), r.Atoms...)
	if len(l.Groups)+len(r.Groups) > 0 {
		t.Groups = make([]*relation.Relation, 0, len(l.Groups)+len(r.Groups))
		t.Groups = append(append(t.Groups, l.Groups...), r.Groups...)
	}
	return t
}

// nullNested is the all-NULL (empty-group) padding tuple for a schema.
func nullNested(s *relation.Schema) relation.Tuple {
	t := relation.Tuple{Atoms: make([]value.Value, len(s.Cols))}
	if len(s.Subs) > 0 {
		t.Groups = make([]*relation.Relation, len(s.Subs))
	}
	return t
}

// extractEquiKeys mirrors algebra's equi-conjunct extraction: the
// equi-join key columns of an AND-tree join condition and the residual
// (non-equi) conjuncts, shared by Join and VecHashJoin.
func extractEquiKeys(on expr.Expr, ls, rs *relation.Schema) (lk, rk []int, residual expr.Expr) {
	var rest []expr.Expr
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		if l, ok := e.(expr.Logic); ok && l.Op == expr.OpAnd {
			walk(l.L)
			walk(l.R)
			return
		}
		if c, ok := e.(expr.Cmp); ok && c.Op == expr.Eq {
			lc, lok := c.L.(expr.Column)
			rc, rok := c.R.(expr.Column)
			if lok && rok {
				li, ri := ls.ColIndex(lc.Name), rs.ColIndex(rc.Name)
				if li >= 0 && ri >= 0 && rs.ColIndex(lc.Name) < 0 && ls.ColIndex(rc.Name) < 0 {
					lk, rk = append(lk, li), append(rk, ri)
					return
				}
				li, ri = ls.ColIndex(rc.Name), rs.ColIndex(lc.Name)
				if li >= 0 && ri >= 0 && rs.ColIndex(rc.Name) < 0 && ls.ColIndex(lc.Name) < 0 {
					lk, rk = append(lk, li), append(rk, ri)
					return
				}
			}
		}
		rest = append(rest, e)
	}
	if on != nil {
		walk(on)
	}
	return lk, rk, expr.And(rest...)
}
