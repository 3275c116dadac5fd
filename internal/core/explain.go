package core

import (
	"fmt"
	"strings"

	"nra/internal/algebra"
	"nra/internal/opt"
	"nra/internal/sql"
)

// Explain renders the tree expression of §4.1 (the paper's Figure 3(a))
// for an analyzed query, annotated with the execution strategy the given
// options select.
func Explain(q *sql.Query, opt Options) (string, error) {
	p, err := newPlanner(q, opt)
	if err != nil {
		return "", err
	}
	return p.explainString(), nil
}

// explainString renders the EXPLAIN text for an already-constructed
// planner — shared by Explain and the slow-query log, which captures the
// executed plan without re-planning.
func (p *planner) explainString() string {
	opt := p.opt
	q := p.q
	var b strings.Builder
	b.WriteString("tree expression (§4.1):\n")
	p.explainBlock(&b, q.Root, 0)

	b.WriteString("strategy: ")
	switch {
	case opt.BottomUp && firstOK(p.linearCorrelatedChain()):
		b.WriteString("bottom-up linear correlation (§4.2.3)")
	case opt.Fused && firstOK(p.fullyCorrelatedLinearChain()):
		b.WriteString("fully fused nest chain: one sort, one scan (§4.2.1)")
	case opt.Fused:
		b.WriteString("top-down outer joins + pipelined nest/linking selection (§4.2.2)")
	default:
		b.WriteString("top-down outer joins + materialised nest, then linking selection (Algorithm 1)")
	}
	b.WriteByte('\n')
	if opt.TwoValuedLogic {
		b.WriteString("  two-valued logic: NULL comparisons are FALSE; negative operators antijoin at strict leaves\n")
	}
	if opt.PositiveRewrite {
		b.WriteString("  positive linking operators rewritten to (semi)joins where pending operators allow (§4.2.5)\n")
		if p.setSem {
			b.WriteString("  set-semantics output (root DISTINCT): §4.2.5 inner-block duplicate elimination elided\n")
		}
	}
	if opt.NestPushdown {
		b.WriteString("  nest pushed below equi-joins on the nesting attributes (§4.2.4)\n")
	}
	if opt.Vectorized {
		if reason := p.vecGate(); reason != "" {
			fmt.Fprintf(&b, "vectorized: requested but disabled (%s)\n", reason)
		} else {
			b.WriteString("vectorized: batch-at-a-time kernels (scan/filter/project, batched-probe hash join, fused nest + linking selection); shapes without a kernel fall back per operator\n")
			for _, n := range p.vecNotes {
				fmt.Fprintf(&b, "  vec: %s\n", n)
			}
		}
	}
	if opt.MemoryBudget > 0 {
		fmt.Fprintf(&b, "memory budget: %d bytes (hash-join builds degrade to chunked grace joins, pre-nest sorts to external merges, when working state exceeds it; results are identical)\n", opt.MemoryBudget)
	} else {
		b.WriteString("memory budget: unbounded (no operator spills)\n")
	}
	if opt.Timeout > 0 {
		fmt.Fprintf(&b, "timeout: %s (cancellation observed at operator boundaries; spill files removed)\n", opt.Timeout)
	}
	if opt.UseStats && p.statsNote != "" {
		b.WriteString(p.statsNote)
		b.WriteByte('\n')
		for _, n := range p.planNotes {
			fmt.Fprintf(&b, "  cost: %s\n", n)
		}
	}
	return b.String()
}

// ExplainAnalyze executes the query and renders the EXPLAIN tree followed
// by a per-operator table joining the planner's cardinality estimates with
// the actual row counts observed during execution, and the run's resource
// accounting (peak tracked bytes, spill events).
func ExplainAnalyze(q *sql.Query, opt Options) (string, error) {
	plan, err := Explain(q, opt)
	if err != nil {
		return "", err
	}
	_, ops, st, err := ExecuteAnalyzed(q, opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(plan)
	b.WriteString("analyze:\n")
	opw := 8
	for _, o := range ops {
		if n := len([]rune(o.Op)); n > opw {
			opw = n
		}
	}
	fmt.Fprintf(&b, "  %-*s  %10s  %10s  %8s\n", opw, "operator", "est rows", "act rows", "q-error")
	for _, o := range ops {
		est, qe := "-", "-"
		if o.Est >= 0 {
			est = fmtRows(o.Est)
			qe = fmt.Sprintf("%.2f", qError(o.Est, o.Act))
		}
		fmt.Fprintf(&b, "  %-*s  %10s  %10d  %8s\n", opw, o.Op, est, o.Act, qe)
	}
	fmt.Fprintf(&b, "  peak tracked memory: %d bytes; spills: %d (%d bytes)\n",
		st.PeakBytes, st.Spills, st.SpillBytes)
	return b.String(), nil
}

// qError is opt.QError: the symmetric estimation-error factor
// max(est,act)/min(est,act) with both sides clamped to at least one row.
func qError(est float64, act int) float64 { return opt.QError(est, act) }

func firstOK[T any](_ T, ok bool) bool { return ok }

func (p *planner) explainBlock(b *strings.Builder, blk *sql.Block, depth int) {
	indent := strings.Repeat("  ", depth)
	var tables []string
	for _, bt := range blk.Tables {
		tables = append(tables, bt.Ref.Table)
	}
	fmt.Fprintf(b, "%sT%d: %s", indent, blk.ID+1, strings.Join(tables, " ⋈ "))
	if loc := exprStrings(blk.Local); len(loc) > 0 {
		fmt.Fprintf(b, "  [θ: %s]", strings.Join(loc, " AND "))
	}
	if cor := corrStrings(blk.Corr); len(cor) > 0 {
		fmt.Fprintf(b, "  [C: %s]", strings.Join(cor, " AND "))
	}
	if p.est != nil {
		fmt.Fprintf(b, "  [est %s rows]", fmtRows(p.card[blk.ID]))
	}
	if p.opt.Vectorized && p.vecGate() == "" {
		fmt.Fprintf(b, "  [%s]", p.reduceVecLabel(blk))
	}
	if lbl := p.segPruneLabel(blk); lbl != "" {
		fmt.Fprintf(b, "  [%s]", lbl)
	}
	b.WriteByte('\n')
	for _, l := range blk.Links {
		if p.antijoin2VLOK(blk, p.q.Root, l) {
			// The 2VL fast path: no linking operator remains — the edge
			// executes as a plain antijoin against the reduced child.
			fmt.Fprintf(b, "%s  ▷ antijoin T%d (2VL)", indent, l.Child.ID+1)
			if ee, ok := p.estEdge(l); ok {
				fmt.Fprintf(b, "  [est: keeps %.3g → %s rows]", ee.frac, fmtRows(ee.after))
			}
			b.WriteByte('\n')
			p.explainBlock(b, l.Child, depth+1)
			continue
		}
		mode := "σ"
		if !p.strictOK(blk, p.q.Root) {
			mode = "σ̄"
		}
		fmt.Fprintf(b, "%s  L: %s  (%s)", indent, linkString(l), mode)
		if ee, ok := p.estEdge(l); ok {
			fmt.Fprintf(b, "  [est: ⟕ %s rows, link keeps %.3g → %s rows]",
				fmtRows(ee.joined), ee.frac, fmtRows(ee.after))
		}
		if p.opt.Vectorized && p.vecGate() == "" {
			fmt.Fprintf(b, "  [⟕ %s]", p.linkJoinVecLabel(l.Child))
		}
		b.WriteByte('\n')
		p.explainBlock(b, l.Child, depth+1)
	}
}

// fmtRows renders an estimated cardinality compactly.
func fmtRows(f float64) string {
	if f < 0 {
		return "?"
	}
	if f < 10 {
		return fmt.Sprintf("%.2g", f)
	}
	return fmt.Sprintf("%.0f", f)
}

func linkString(l *sql.LinkEdge) string {
	switch l.Kind {
	case sql.Exists, sql.NotExists:
		return l.Kind.String()
	case sql.In, sql.NotIn:
		return fmt.Sprintf("%s %s", l.Pred.Left, l.Kind)
	case sql.CmpScalar:
		agg, _ := l.Child.Agg()
		arg := agg.Col
		if agg.Func == algebra.AggCountStar {
			arg = "*"
		}
		return fmt.Sprintf("%s %s %s(%s)", l.Pred.Left, l.Cmp, aggName(agg.Func), arg)
	default:
		q := "SOME"
		if l.Kind == sql.CmpAll {
			q = "ALL"
		}
		return fmt.Sprintf("%s %s%s", l.Pred.Left, l.Cmp, q)
	}
}

func aggName(f algebra.AggFunc) string {
	if f == algebra.AggCountStar {
		return "COUNT"
	}
	return f.String()
}

func exprStrings(es []sql.Expr) []string {
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, e.String())
	}
	return out
}

func corrStrings(cs []sql.CorrPred) []string {
	out := make([]string, 0, len(cs))
	for _, c := range cs {
		out = append(out, c.E.String())
	}
	return out
}
