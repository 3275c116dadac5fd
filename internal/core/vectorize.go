package core

import (
	"fmt"

	"nra/internal/colstore"
	"nra/internal/expr"
	"nra/internal/opt"
	"nra/internal/sql"
	"nra/internal/vec"
)

// Batch-at-a-time dispatch. Options.Vectorized routes the hot-path
// operators — block reduction, hash joins, the fused nest + linking
// selection — through internal/vec's kernels when the whole-query gate
// and the per-operator shape checks allow it. Every decision is recorded
// so EXPLAIN and the slow-query log show which path each operator took
// and why; the row engine remains the parity oracle, so every fallback
// is between byte-identical implementations.

// vecGate reports why the batch operators cannot be used under the
// current options ("" = they can). The gate is a pure function of the
// options, so EXPLAIN reaches the same verdict as execution: batches do
// not spill under a memory budget, and the fault-injection hooks
// intercept only the row operators. Context/timeout governance does NOT disable the batch
// path — its operators observe cancellation at batch boundaries.
func (p *planner) vecGate() string {
	switch {
	case !p.opt.Vectorized:
		return "not requested"
	case p.opt.MemoryBudget > 0:
		return "memory budget set (batch operators do not spill)"
	case p.opt.MemPool != nil:
		return "pooled memory budget set (batch operators do not spill)"
	case p.opt.Hooks != nil:
		return "fault hooks installed"
	}
	return ""
}

// vecCostOK applies the cost gate: with cost-based planning active, an
// operator input below opt.VecMinRows keeps the row path (batch setup
// would not amortise); without it the batch path is taken uncondition-
// ally, matching how the other physical knobs behave.
func (p *planner) vecCostOK(rows float64) bool {
	return !p.costBased() || opt.VectorizeWorthwhile(rows)
}

// vecNote records one operator's runtime fallback from the batch to the
// row path, deduplicated, for EXPLAIN and the slow-query log.
func (p *planner) vecNote(op, reason string) {
	n := fmt.Sprintf("%s [row: %s]", op, reason)
	for _, e := range p.vecNotes {
		if e == n {
			return
		}
	}
	p.vecNotes = append(p.vecNotes, n)
}

// reduceVecLabel classifies a block's reduction for the static EXPLAIN
// annotation: "batch" when the single-table scan→filter→project pass
// has a predicate kernel, else "row: reason". It mirrors exactly the
// checks exec.VecReduce performs at run time.
func (p *planner) reduceVecLabel(b *sql.Block) string {
	if len(b.Tables) != 1 {
		return "row: multi-table block"
	}
	local, err := p.q.LowerAll(b.Local)
	if err != nil {
		return "row: unlowerable predicate"
	}
	if local = p.filterExpr(local); local != nil {
		if _, ok := vec.CompilePred(local, b.Tables[0].Schema); !ok {
			return "row: predicate has no batch kernel"
		}
	}
	return "batch"
}

// segPruneLabel renders EXPLAIN's static `segments: scanned/total`
// annotation for a single-table block whose table version is
// segment-backed and whose local predicate runs on the batch path. It
// calls the same colstore.PruneGroups the runtime scan uses, so the
// numbers are exactly what execution will do on this snapshot.
func (p *planner) segPruneLabel(b *sql.Block) string {
	if !p.opt.Vectorized || p.vecGate() != "" || p.opt.NoZoneMapPruning || len(b.Tables) != 1 {
		return ""
	}
	bt := b.Tables[0]
	segs := bt.Table.Segments()
	if segs == nil || segs.Rows() != bt.Table.Rel.Len() {
		return ""
	}
	local, err := p.q.LowerAll(b.Local)
	if err != nil || local == nil {
		return ""
	}
	local = p.filterExpr(local)
	if _, ok := vec.CompilePred(local, bt.Schema); !ok {
		return "" // row fallback scans every group
	}
	_, scanned, total := colstore.PruneGroups(local, bt.Schema, segs.Footer())
	return fmt.Sprintf("segments: %d/%d", scanned, total)
}

// linkJoinVecLabel classifies a link edge's outer join for the static
// EXPLAIN annotation. The batched-probe hash join needs the correlation
// condition to be an AND-tree of column = column conjuncts (the same
// shape gate the equi-key extractor applies at run time); anything else
// leaves a residual the batch join has no kernel for.
func (p *planner) linkJoinVecLabel(child *sql.Block) string {
	on, err := p.corrCond(child)
	if err != nil {
		return "row: unlowerable correlation predicate"
	}
	if on == nil {
		return "row: no equi-join keys"
	}
	if !equiShape(on) {
		return "row: non-equi residual condition"
	}
	return "batch"
}

// equiShape reports whether e is an AND-tree of column = column
// comparisons — the join shapes the batch hash join accepts whole.
func equiShape(e expr.Expr) bool {
	switch x := e.(type) {
	case expr.Logic:
		return x.Op == expr.OpAnd && equiShape(x.L) && equiShape(x.R)
	case expr.Cmp:
		if x.Op != expr.Eq {
			return false
		}
		_, lc := x.L.(expr.Column)
		_, rc := x.R.(expr.Column)
		return lc && rc
	}
	return false
}
