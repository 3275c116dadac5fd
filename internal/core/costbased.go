package core

import (
	"fmt"
	"math"

	"nra/internal/algebra"
	"nra/internal/obsv"
	"nra/internal/opt"
	"nra/internal/sql"
	"nra/internal/stats"
)

// Cost-based planning. When Options.UseStats is set and *every* base
// table of the query carries fresh statistics, the planner builds an
// opt.Estimator and precomputes per-block and per-edge cardinality
// estimates; Options.CostBased then lets those estimates steer the
// physical decisions (subquery processing order, §4.2.5 semijoin and
// §4.2.4 push-down gating, planned spilling). The estimator is all-or-nothing — one missing or stale
// table disables it — so a query without statistics plans exactly as the
// heuristics always have (plan parity, verified by tests).

// edgeEst holds the precomputed estimates for one linking edge.
type edgeEst struct {
	inner  float64 // |T_c|: the reduced child block
	outer  float64 // |rel| before this edge's join
	joined float64 // |rel ⟕ T_c| (or |rel| for uncorrelated subtrees)
	frac   float64 // linking-selectivity: fraction of outer tuples kept
	after  float64 // |rel| after the linking selection
	why    string  // formula rendered by opt.LinkSelectivity

	semijoin     bool // §4.2.5 rewrite is the cost-model choice
	semijoinNote string
}

// costBased reports whether cost-model decisions are active: requested
// by the options and backed by a live estimator.
func (p *planner) costBased() bool { return p.opt.CostBased && p.est != nil }

// buildEstimator constructs the estimator when every table of the query
// has fresh statistics; otherwise p.est stays nil and planning is purely
// heuristic.
func (p *planner) buildEstimator() {
	if !p.opt.UseStats {
		return
	}
	e := opt.NewEstimator()
	for _, b := range p.q.Blocks {
		for _, bt := range b.Tables {
			ts := bt.Table.Stats()
			if ts == nil {
				p.statsNote = "statistics: absent or stale on some tables — heuristic planning (run ANALYZE)"
				return
			}
			e.AddTable(bt.Schema, ts)
		}
	}
	p.est = e
	p.statsNote = fmt.Sprintf("statistics: fresh on all %d tables — cost-based planning active", len(p.q.Blocks))
}

// estimateQuery precomputes the per-block reduced cardinalities, the
// per-edge join/link estimates, the peak operator input (for the
// external-sort decision) and the planned-spill set.
func (p *planner) estimateQuery() {
	if p.est == nil {
		return
	}
	p.card = make(map[int]float64, len(p.q.Blocks))
	p.width = make(map[int]float64, len(p.q.Blocks))
	p.edgeEst = make(map[*sql.LinkEdge]edgeEst)
	for _, b := range p.q.Blocks {
		base := 1.0
		for _, bt := range b.Tables {
			base *= float64(bt.Table.Rel.Len())
		}
		sel := 1.0
		if local, err := p.q.LowerAll(b.Local); err == nil {
			sel = p.est.Selectivity(local)
		}
		p.card[b.ID] = base * sel
		w := 0.0
		for _, col := range p.needed[b.ID] {
			if cs := p.est.Col(col); cs != nil {
				w += cs.Width
			} else {
				w += 40
			}
		}
		p.width[b.ID] = w
	}
	p.peakRows = p.card[p.q.Root.ID]
	p.estimateChildren(p.q.Root, p.q.Root, p.card[p.q.Root.ID])
	p.decideSpills()
}

// estimateChildren mirrors processChildren's recursion over the link
// tree, estimating instead of executing. It returns the estimated
// cardinality of rel after all of node's links are applied.
func (p *planner) estimateChildren(node, top *sql.Block, rel float64) float64 {
	for _, edge := range node.Links {
		c := edge.Child
		inner := p.card[c.ID]
		strict := p.strictOK(node, top)
		uncorr := p.subtreeUncorrelated(c)

		var ee edgeEst
		ee.inner = inner
		ee.outer = rel
		if uncorr {
			// Standalone evaluation + shared group: rel keeps its width.
			set := p.estimateChildren(c, c, inner)
			match := 0.0
			if set >= 0.5 {
				match = 1
			}
			ee.joined = rel
			ee.frac, ee.why = p.linkSelEstimate(edge, c, match, math.Max(set, 1))
		} else {
			corrE, err := p.corrCond(c)
			if err != nil {
				corrE = nil
			}
			match, avg := p.est.GroupShape(corrE, rel, inner)
			ee.joined = p.est.OuterJoinRows(rel, inner, corrE)
			p.estimateChildren(c, top, ee.joined)
			ee.frac, ee.why = p.linkSelEstimate(edge, c, match, avg)
		}
		p.peakRows = math.Max(p.peakRows, math.Max(ee.joined, inner))

		ee.after = rel * ee.frac
		if !strict {
			ee.after = rel // σ̄ pads failing tuples instead of dropping them
		}

		// §4.2.5 gate: price the semijoin rewrite against the fused
		// nest + linking-selection path it replaces. Inner blocks pay a
		// duplicate elimination over the joined relation to restore the
		// multiset — elided (and not charged) under set-semantics output,
		// which prices the rewrite cheaper for DISTINCT queries.
		if p.opt.PositiveRewrite && edge.Kind.Positive() && strict && !uncorr {
			semi := opt.SemiJoinCost(inner, rel, rel*ee.frac)
			if len(c.Links) > 0 && !p.setSem {
				semi += opt.DistinctCost(ee.joined)
			}
			nest := opt.HashJoinCost(inner, rel, ee.joined) + opt.NestLinkCost(ee.joined, ee.after)
			ee.semijoin = semi <= nest
			verdict := "rewrite to (semi)join"
			if !ee.semijoin {
				verdict = "keep nest+link"
			}
			ee.semijoinNote = fmt.Sprintf("L%d %s: %s (semijoin %.3g vs nest+link %.3g tuple-touches)",
				c.ID+1, linkString(edge), verdict, semi, nest)
			if p.opt.CostBased {
				p.noteOnce(ee.semijoinNote)
			}
		}

		p.edgeEst[edge] = ee
		rel = ee.after
	}
	return rel
}

// linkSelEstimate fills an opt.LinkInput from the edge's resolved
// attribute statistics and returns the linking selectivity.
func (p *planner) linkSelEstimate(edge *sql.LinkEdge, c *sql.Block, match, avg float64) (float64, string) {
	in := opt.LinkInput{Kind: edge.Kind, Cmp: edge.Cmp, MatchFrac: match, AvgGroup: avg}
	var attrCol, linkedCol *stats.Column
	switch edge.Kind {
	case sql.Exists, sql.NotExists:
	case sql.CmpScalar:
		if agg, ok := c.Agg(); ok {
			in.CountAgg = agg.Func == algebra.AggCountStar
			if cs := p.est.Col(agg.Col); cs != nil {
				in.LinkedNull, in.LinkedNDV = cs.NullFrac(), cs.NDV
				linkedCol = cs
			}
		}
	default:
		if la, err := p.q.LinkedAttr(c); err == nil {
			if cs := p.est.Col(la); cs != nil {
				in.LinkedNull, in.LinkedNDV = cs.NullFrac(), cs.NDV
				linkedCol = cs
			}
		}
	}
	switch left := edge.Pred.Left.(type) {
	case *sql.ColRef:
		if r, ok := p.q.Resolve(left); ok {
			if cs := p.est.Col(r.Name); cs != nil {
				in.AttrNull = cs.NullFrac()
				attrCol = cs
			}
		}
	case *sql.Lit:
		in.ConstAttr = true
	}
	if f, ok := opt.CmpColFraction(attrCol, linkedCol, edge.Cmp); ok {
		in.PTheta, in.HavePTheta = f, true
	}
	return opt.LinkSelectivity(in)
}

// decideSpills plans in-memory vs spilling execution against the memory
// budget: when an estimated hash-join build side or sort input exceeds
// the budget, the affected operators start on their grace-join /
// external-sort paths instead of failing over mid-build.
func (p *planner) decideSpills() {
	if !p.opt.CostBased || p.opt.MemoryBudget <= 0 {
		return
	}
	budget := float64(p.opt.MemoryBudget)
	maxBuild := 0.0
	for _, b := range p.q.Blocks {
		if b == p.q.Root {
			continue // child blocks are the build sides of the unnesting joins
		}
		maxBuild = math.Max(maxBuild, opt.EstBytes(p.card[b.ID], p.width[b.ID]))
	}
	if maxBuild > budget {
		p.spillOps = append(p.spillOps, "hashjoin", "join")
		p.planNotes = append(p.planNotes, fmt.Sprintf(
			"planned grace hash join: est build side %.0f B > budget %d B", maxBuild, p.opt.MemoryBudget))
	}
	totalWidth := 0.0
	for _, w := range p.width {
		totalWidth += w
	}
	if sortBytes := opt.EstBytes(p.peakRows, totalWidth); sortBytes > budget {
		p.spillOps = append(p.spillOps, "nestlink/sort")
		p.planNotes = append(p.planNotes, fmt.Sprintf(
			"planned external sort: est sort input %.0f B > budget %d B", sortBytes, p.opt.MemoryBudget))
	}
}

// orderEdges returns node's links sorted most-selective-first (smallest
// estimated surviving fraction), so later, costlier links see fewer
// tuples. Reordering is only semantics-preserving under the strict
// linking selection — σ̄ pads the node's columns, which a sibling
// evaluated later would observe — so callers gate on strictOK.
func (p *planner) orderEdges(links []*sql.LinkEdge) []*sql.LinkEdge {
	ordered := append([]*sql.LinkEdge(nil), links...)
	// Stable insertion sort: ties keep syntactic order.
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && p.edgeEst[ordered[j]].frac < p.edgeEst[ordered[j-1]].frac; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	for i, e := range ordered {
		if e != links[i] {
			p.planNotes = append(p.planNotes, "subquery evaluation reordered most-selective-first")
			break
		}
	}
	return ordered
}

// chooseSemijoin reports the cost model's verdict for the §4.2.5
// rewrite of this edge (true without an estimate: the heuristic default).
func (p *planner) chooseSemijoin(edge *sql.LinkEdge) bool {
	if !p.costBased() {
		return true
	}
	ee, ok := p.edgeEst[edge]
	if !ok {
		return true
	}
	return ee.semijoin
}

// choosePushdown reports the cost model's verdict for §4.2.4: nest the
// reduced child before the join iff sorting the small T_c beats sorting
// the joined relation (true without an estimate: the heuristic default).
func (p *planner) choosePushdown(edge *sql.LinkEdge) bool {
	if !p.costBased() {
		return true
	}
	ee, ok := p.edgeEst[edge]
	if !ok {
		return true
	}
	// Pushdown: sort/nest T_c, then outer-join the groups to rel (the
	// output stays one tuple per outer tuple). Default: outer-join first,
	// then the fused nest+link over the (larger) joined relation.
	push := opt.SortCost(ee.inner) + opt.HashJoinCost(ee.inner, ee.outer, ee.outer)
	keep := opt.HashJoinCost(ee.inner, ee.outer, ee.joined) + opt.NestLinkCost(ee.joined, ee.after)
	if push > keep {
		p.noteOnce(fmt.Sprintf("L%d: nest push-down skipped (push %.3g vs nest+link %.3g tuple-touches)",
			edge.Child.ID+1, push, keep))
		return false
	}
	return true
}

// noteOnce appends a plan note, deduplicating repeats (EXPLAIN builds a
// planner and never executes, so runtime notes must not double up).
func (p *planner) noteOnce(n string) {
	for _, have := range p.planNotes {
		if have == n {
			return
		}
	}
	p.planNotes = append(p.planNotes, n)
}

// estEdge returns the estimates for an edge, or ok=false without an
// estimator.
func (p *planner) estEdge(edge *sql.LinkEdge) (edgeEst, bool) {
	ee, ok := p.edgeEst[edge]
	return ee, ok
}

// estJoined / estAfter return an edge's estimated join-output and
// post-link cardinalities, or -1 without an estimate.
func (p *planner) estJoined(edge *sql.LinkEdge) float64 {
	if ee, ok := p.edgeEst[edge]; ok {
		return ee.joined
	}
	return -1
}

func (p *planner) estAfter(edge *sql.LinkEdge) float64 {
	if ee, ok := p.edgeEst[edge]; ok {
		return ee.after
	}
	return -1
}

// estCard returns a block's estimated reduced cardinality, or -1.
func (p *planner) estCard(b *sql.Block) float64 {
	if p.est == nil {
		return -1
	}
	return p.card[b.ID]
}

// begin opens a plan-level trace span for one executed operator — the
// unit EXPLAIN ANALYZE reports one row for. With tracing off it returns
// nil and skips the label formatting, so the disabled path costs one nil
// check and zero allocations. Physical operator spans (joins, sorts, the
// fused nest+link scans) started while a plan span is open nest under it.
func (p *planner) begin(format string, args ...any) *obsv.Span {
	if !p.ec.Tracing() {
		return nil
	}
	return p.ec.StartSpan(fmt.Sprintf(format, args...), obsv.KindPlan)
}

// done closes a plan span with the operator's estimated (est < 0 = no
// estimate) and actual output rows. Plan spans never nest inside each
// other — every begin's span is done before the next begin — so walking
// a trace in start order reproduces the sequential operator log exactly.
func (p *planner) done(sp *obsv.Span, est float64, act int) {
	if sp == nil {
		return
	}
	sp.SetEst(est)
	sp.AddRowsOut(int64(act))
	sp.End()
}
