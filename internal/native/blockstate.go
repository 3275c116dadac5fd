package native

import (
	"nra/internal/expr"
	"nra/internal/relation"
	"nra/internal/sql"
)

// blockState builds (and caches) the access machinery for a subquery
// block in nested-iteration mode: the base relation, the compiled
// residual predicates, and the best matching index — the longest index of
// the block's table whose every column is covered by an equality
// predicate (correlated or constant). This mirrors System A's behaviour
// in §5.2: the combined (l_partkey, l_suppkey) index is used when both
// correlations are equalities (Query 3a(a)/(c)), the single l_suppkey
// index when p_partkey <> l_partkey demotes the first column
// (Query 3a(b)), and a full scan when nothing matches.
func (e *Executor) blockState(b *sql.Block) (*blockState, error) {
	if st, ok := e.blocks[b.ID]; ok {
		return st, nil
	}
	bt := b.Tables[0]
	st := &blockState{
		b:       b,
		rel:     &relation.Relation{Schema: bt.Schema, Tuples: bt.Table.Rel.Tuples},
		itemIdx: -1,
	}
	st.allRows = make([]int, st.rel.Len())
	for i := range st.allRows {
		st.allRows[i] = i
	}

	// Environment: the ancestor chain outermost-first, then this block.
	var chain []*sql.Block
	for blk := b; blk != nil; blk = blk.Parent {
		chain = append([]*sql.Block{blk}, chain...)
	}
	env := expr.NewEnv()
	for _, blk := range chain {
		env = env.Push(blk.Schema)
	}

	// Compile every local and correlated conjunct as a residual check.
	var conjuncts []sql.Expr
	conjuncts = append(conjuncts, b.Local...)
	for _, cp := range b.Corr {
		conjuncts = append(conjuncts, cp.E)
	}
	for _, c := range conjuncts {
		le, err := e.q.Lower(c)
		if err != nil {
			return nil, err
		}
		compiled, err := expr.CompileEnv(le, env)
		if err != nil {
			return nil, err
		}
		st.rest = append(st.rest, restPred{compiled: compiled})
	}

	// Collect equality probes for index matching.
	probes := e.collectProbes(b)

	// Choose the longest fully covered index.
	best := -1
	var bestProbe []probe
	for _, cols := range bt.Table.Indexes() {
		cover := make([]probe, 0, len(cols))
		ok := true
		for _, ic := range cols {
			found := false
			for _, pr := range probes {
				if unqualify(pr.col) == unqualify(ic) {
					cover = append(cover, pr)
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok && len(cols) > best {
			best = len(cols)
			bestProbe = cover
			st.idx = bt.Table.Index(cols...)
		}
	}
	st.idxProbe = bestProbe

	// Select-item column for quantified linking predicates.
	if !b.Sel.Star && len(b.Sel.Items) == 1 {
		if c, ok := b.Sel.Items[0].Expr.(*sql.ColRef); ok {
			if r, resolved := e.q.Resolve(c); resolved && r.Block == b {
				st.itemIdx = b.Schema.ColIndex(r.Name)
			}
		}
	}

	e.blocks[b.ID] = st
	return st, nil
}

// collectProbes extracts equality predicates usable as index keys:
// local "col = constant" and correlated "col = outerCol" conjuncts.
func (e *Executor) collectProbes(b *sql.Block) []probe {
	var probes []probe
	addLocal := func(col *sql.ColRef, lit *sql.Lit) {
		r, ok := e.q.Resolve(col)
		if !ok || r.Block != b {
			return
		}
		probes = append(probes, probe{col: r.Name, constVal: lit.V})
	}
	for _, l := range b.Local {
		bin, ok := l.(*sql.BinOp)
		if !ok || bin.Op != "=" {
			continue
		}
		if c, okc := bin.L.(*sql.ColRef); okc {
			if lit, okl := bin.R.(*sql.Lit); okl {
				addLocal(c, lit)
			}
		}
		if c, okc := bin.R.(*sql.ColRef); okc {
			if lit, okl := bin.L.(*sql.Lit); okl {
				addLocal(c, lit)
			}
		}
	}
	addCorr := func(inner, outer *sql.ColRef) bool {
		ri, iok := e.q.Resolve(inner)
		ro, ook := e.q.Resolve(outer)
		if !iok || !ook || ri.Block != b || ro.Block == b {
			return false
		}
		probes = append(probes, probe{
			col:       ri.Name,
			fromCol:   ro.Name,
			fromBlock: ro.Block,
			fromIdx:   ro.Block.Schema.ColIndex(ro.Name),
		})
		return true
	}
	for _, cp := range b.Corr {
		bin, ok := cp.E.(*sql.BinOp)
		if !ok || bin.Op != "=" {
			continue
		}
		lc, lok := bin.L.(*sql.ColRef)
		rc, rok := bin.R.(*sql.ColRef)
		if !lok || !rok {
			continue
		}
		if !addCorr(lc, rc) {
			addCorr(rc, lc)
		}
	}
	return probes
}
