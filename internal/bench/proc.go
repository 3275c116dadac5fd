package bench

import (
	"fmt"
	"time"

	"nra/internal/algebra"
	"nra/internal/exec"
	"nra/internal/expr"
	"nra/internal/relation"
)

// This file regenerates the paper's in-text processing-time tables: the
// cost of *just* the nest + linking selection over the already-fetched
// intermediate result, comparing the original two-pass evaluation
// (materialised nest, then linking selection — §4.1) with the optimized
// one-pass pipeline (§4.2.2). The paper reports 0.24/0.47/0.71/0.98 s vs
// 0.03/0.06/0.10/0.13 s for Query 1's four intermediate sizes, and
// 0.18/…/0.72 s vs 0.02/…/0.08 s for Query 2 — roughly an 8–10×
// single-pass advantage, linear in the intermediate size.

// ProcQ1 measures nest + linking selection over Query 1's intermediate
// result (orders ⟕ lineitem) at the four sweep sizes.
func (e *Env) ProcQ1() (*Figure, error) {
	fig := &Figure{
		ID:    "proc-q1",
		Title: "Query 1 intermediate-result processing (nest + linking selection only)",
		Notes: "paper: .24/.47/.71/.98s original vs .03/.06/.10/.13s optimized at 40K–165K tuples",
	}
	liTbl, err := e.Cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	li, err := algebra.Select(
		&relation.Relation{Schema: liTbl.Rel.Schema, Tuples: liTbl.Rel.Tuples},
		expr.And(
			expr.Compare(expr.Lt, expr.Col("l_commitdate"), expr.Col("l_receiptdate")),
			expr.Compare(expr.Lt, expr.Col("l_shipdate"), expr.Col("l_commitdate")),
		))
	if err != nil {
		return nil, err
	}
	li, err = algebra.Project(li, "l_rowid", "l_orderkey", "l_extendedprice")
	if err != nil {
		return nil, err
	}
	ordTbl, err := e.Cat.Table("orders")
	if err != nil {
		return nil, err
	}
	for _, f := range outerFracs {
		x2, err := e.quantile("orders", "o_orderdate", f)
		if err != nil {
			return nil, err
		}
		ord, err := algebra.Select(
			&relation.Relation{Schema: ordTbl.Rel.Schema, Tuples: ordTbl.Rel.Tuples},
			expr.Compare(expr.Lt, expr.Col("o_orderdate"), expr.Lit{V: x2}))
		if err != nil {
			return nil, err
		}
		ord, err = algebra.Project(ord, "o_orderkey", "o_totalprice")
		if err != nil {
			return nil, err
		}
		joined, err := exec.Join(exec.Background(), ord, li,
			expr.Compare(expr.Eq, expr.Col("l_orderkey"), expr.Col("o_orderkey")), true)
		if err != nil {
			return nil, err
		}

		pred := algebra.AllPred("o_totalprice", expr.Gt, "g", "l_extendedprice", "l_rowid")
		point := Point{
			Label:      fmt.Sprintf("%d tuples", joined.Len()),
			BlockSizes: []int{ord.Len(), li.Len()},
			Times:      make(map[string]time.Duration),
		}

		orig, origRows, err := e.timeIt(func() (int, error) {
			nested, err := algebra.Nest(joined, []string{"o_orderkey", "o_totalprice"}, []string{"l_extendedprice", "l_rowid"}, "g")
			if err != nil {
				return 0, err
			}
			selected, err := algebra.LinkSelect(nested, pred)
			if err != nil {
				return 0, err
			}
			out, err := algebra.DropSub(selected, "g")
			if err != nil {
				return 0, err
			}
			return out.Len(), nil
		})
		if err != nil {
			return nil, err
		}
		spec := &exec.LinkSpec{
			Pred:      pred,
			AttrIdx:   joined.Schema.MustColIndex("o_totalprice"),
			LinkedIdx: joined.Schema.MustColIndex("l_extendedprice"),
			PresIdx:   joined.Schema.MustColIndex("l_rowid"),
		}
		opt, optRows, err := e.timeIt(func() (int, error) {
			out, err := exec.NestLink(exec.Background(), joined, []string{"o_orderkey"},
				[]string{"o_orderkey", "o_totalprice"}, spec, nil)
			if err != nil {
				return 0, err
			}
			return out.Len(), nil
		})
		if err != nil {
			return nil, err
		}
		if origRows != optRows {
			return nil, fmt.Errorf("proc-q1: original (%d rows) and optimized (%d rows) disagree", origRows, optRows)
		}
		point.Times[StratNRAOriginal] = orig
		point.Times[StratNRAOptimized] = opt
		point.Rows = origRows
		fig.Points = append(fig.Points, point)
	}
	return fig, nil
}

// ProcQ2 measures the two-level processing over Query 2's intermediate
// result (part ⟕ partsupp ⟕ lineitem): two nests and two linking
// selections (original) versus the single-sort single-scan fused chain
// (§4.2.1).
func (e *Env) ProcQ2() (*Figure, error) {
	fig := &Figure{
		ID:    "proc-q2",
		Title: "Query 2 intermediate-result processing (two levels)",
		Notes: "paper: .18/.36/.54/.72s original vs .02/.04/.06/.08s optimized at 14K–58K tuples",
	}
	availY, err := e.quantile("partsupp", "ps_availqty", 0.5)
	if err != nil {
		return nil, err
	}
	psTbl, _ := e.Cat.Table("partsupp")
	ps, err := algebra.Select(
		&relation.Relation{Schema: psTbl.Rel.Schema, Tuples: psTbl.Rel.Tuples},
		expr.Compare(expr.Lt, expr.Col("ps_availqty"), expr.Lit{V: availY}))
	if err != nil {
		return nil, err
	}
	ps, err = algebra.Project(ps, "ps_rowid", "ps_partkey", "ps_suppkey", "ps_supplycost")
	if err != nil {
		return nil, err
	}
	liTbl, _ := e.Cat.Table("lineitem")
	li, err := algebra.Select(
		&relation.Relation{Schema: liTbl.Rel.Schema, Tuples: liTbl.Rel.Tuples},
		expr.Compare(expr.Eq, expr.Col("l_quantity"), expr.Val(25)))
	if err != nil {
		return nil, err
	}
	li, err = algebra.Project(li, "l_rowid", "l_partkey", "l_suppkey")
	if err != nil {
		return nil, err
	}
	partTbl, _ := e.Cat.Table("part")

	for _, f := range outerFracs {
		sizeHi, err := e.quantile("part", "p_size", f)
		if err != nil {
			return nil, err
		}
		part, err := algebra.Select(
			&relation.Relation{Schema: partTbl.Rel.Schema, Tuples: partTbl.Rel.Tuples},
			expr.Compare(expr.Le, expr.Col("p_size"), expr.Lit{V: sizeHi}))
		if err != nil {
			return nil, err
		}
		part, err = algebra.Project(part, "p_partkey", "p_retailprice")
		if err != nil {
			return nil, err
		}
		j1, err := exec.Join(exec.Background(), part, ps,
			expr.Compare(expr.Eq, expr.Col("ps_partkey"), expr.Col("p_partkey")), true)
		if err != nil {
			return nil, err
		}
		joined, err := exec.Join(exec.Background(), j1, li, expr.And(
			expr.Compare(expr.Eq, expr.Col("ps_partkey"), expr.Col("l_partkey")),
			expr.Compare(expr.Eq, expr.Col("ps_suppkey"), expr.Col("l_suppkey"))), true)
		if err != nil {
			return nil, err
		}

		notExists := algebra.NotExistsPred("g2", "l_rowid")
		allPred := algebra.AllPred("p_retailprice", expr.Lt, "g1", "ps_supplycost", "ps_rowid")
		psCols := []string{"ps_rowid", "ps_partkey", "ps_suppkey", "ps_supplycost"}

		point := Point{
			Label:      fmt.Sprintf("%d tuples", joined.Len()),
			BlockSizes: []int{part.Len(), ps.Len(), li.Len()},
			Times:      make(map[string]time.Duration),
		}

		orig, origRows, err := e.timeIt(func() (int, error) {
			byCols := append([]string{"p_partkey", "p_retailprice"}, psCols...)
			nested, err := algebra.Nest(joined, byCols, []string{"l_rowid", "l_partkey", "l_suppkey"}, "g2")
			if err != nil {
				return 0, err
			}
			selected, err := algebra.LinkSelectPad(nested, notExists, psCols)
			if err != nil {
				return 0, err
			}
			flat, err := algebra.DropSub(selected, "g2")
			if err != nil {
				return 0, err
			}
			nested2, err := algebra.Nest(flat, []string{"p_partkey", "p_retailprice"}, psCols, "g1")
			if err != nil {
				return 0, err
			}
			selected2, err := algebra.LinkSelect(nested2, allPred)
			if err != nil {
				return 0, err
			}
			out, err := algebra.DropSub(selected2, "g1")
			if err != nil {
				return 0, err
			}
			return out.Len(), nil
		})
		if err != nil {
			return nil, err
		}

		levels := []exec.ChainLevel{
			{KeyCols: []string{"p_partkey"}, Spec: &exec.LinkSpec{
				Pred:      allPred,
				AttrIdx:   joined.Schema.MustColIndex("p_retailprice"),
				LinkedIdx: joined.Schema.MustColIndex("ps_supplycost"),
				PresIdx:   joined.Schema.MustColIndex("ps_rowid"),
			}},
			{KeyCols: []string{"ps_rowid"}, Spec: &exec.LinkSpec{
				Pred:      notExists,
				AttrIdx:   -1,
				LinkedIdx: -1,
				PresIdx:   joined.Schema.MustColIndex("l_rowid"),
			}},
		}
		opt, optRows, err := e.timeIt(func() (int, error) {
			out, err := exec.NestLinkChain(exec.Background(), joined, levels, []string{"p_partkey", "p_retailprice"})
			if err != nil {
				return 0, err
			}
			return out.Len(), nil
		})
		if err != nil {
			return nil, err
		}
		if origRows != optRows {
			return nil, fmt.Errorf("proc-q2: original (%d) and optimized (%d) disagree", origRows, optRows)
		}
		point.Times[StratNRAOriginal] = orig
		point.Times[StratNRAOptimized] = opt
		point.Rows = origRows
		fig.Points = append(fig.Points, point)
	}
	return fig, nil
}

// timeIt runs f cfg.Runs times, returning the minimum duration and f's
// last result.
func (e *Env) timeIt(f func() (int, error)) (time.Duration, int, error) {
	var best time.Duration
	rows := 0
	for r := 0; r < e.cfg.Runs; r++ {
		start := time.Now()
		n, err := f()
		elapsed := time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
		rows = n
	}
	return best, rows, nil
}
