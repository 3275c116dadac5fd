package native

import (
	"fmt"

	"nra/internal/algebra"
	"nra/internal/exec"
	"nra/internal/expr"
	"nra/internal/relation"
	"nra/internal/sql"
)

// Execute runs the query with the chosen plan.
func (e *Executor) Execute() (*relation.Relation, error) {
	if e.mode == ModeUnnested {
		return e.runPipeline()
	}
	return e.runNestedIteration()
}

// Execute is the package-level convenience: plan and run.
func Execute(q *sql.Query) (*relation.Relation, error) {
	ex, err := New(q)
	if err != nil {
		return nil, err
	}
	return ex.Execute()
}

// reduceBlock materialises σ_{θ_i}(R_i): the block's tables joined on
// their local predicates, keeping all columns. Single-table blocks run as
// one scan+filter pass (exec.Reduce).
func (e *Executor) reduceBlock(b *sql.Block) (*relation.Relation, error) {
	if len(b.Tables) == 1 {
		bt := b.Tables[0]
		base := &relation.Relation{Schema: bt.Schema, Tuples: bt.Table.Rel.Tuples}
		e.m.Seq(base.Len())
		local, err := e.q.LowerAll(b.Local)
		if err != nil {
			return nil, err
		}
		return exec.Reduce(exec.Background(), base, local, nil)
	}
	var rel *relation.Relation
	for ti, bt := range b.Tables {
		tblRel := &relation.Relation{Schema: bt.Schema, Tuples: bt.Table.Rel.Tuples}
		e.m.Seq(tblRel.Len()) // full table scan
		if ti == 0 {
			rel = tblRel
			continue
		}
		joined, err := exec.Join(exec.Background(), rel, tblRel, nil, false)
		if err != nil {
			return nil, err
		}
		rel = joined
	}
	local, err := e.q.LowerAll(b.Local)
	if err != nil {
		return nil, err
	}
	if local != nil {
		rel, err = algebra.Select(rel, local)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// runPipeline executes the bottom-up semijoin/antijoin plan (Query 2a's
// shape: "first performs an antijoin of partsupp and lineitem ... then a
// semijoin of part and the previous resulting view"; each table fully
// accessed once).
func (e *Executor) runPipeline() (*relation.Relation, error) {
	var chain []*sql.Block
	for b := e.q.Root; ; b = b.Links[0].Child {
		chain = append(chain, b)
		if len(b.Links) == 0 {
			break
		}
	}
	view, err := e.reduceBlock(chain[len(chain)-1])
	if err != nil {
		return nil, err
	}
	for i := len(chain) - 2; i >= 0; i-- {
		b := chain[i]
		edge := b.Links[0]
		rel, err := e.reduceBlock(b)
		if err != nil {
			return nil, err
		}
		cond, err := e.q.LowerAll(corrExprs(edge.Child))
		if err != nil {
			return nil, err
		}
		relLen, viewLen := rel.Len(), view.Len()
		view, err = e.applyUnnested(rel, view, edge, cond)
		if err != nil {
			return nil, err
		}
		e.m.Seq(relLen + viewLen + view.Len()) // hash (anti/semi)join passes
	}
	return exec.FinishQuery(view, e.q)
}

func corrExprs(b *sql.Block) []sql.Expr {
	out := make([]sql.Expr, 0, len(b.Corr))
	for _, cp := range b.Corr {
		out = append(out, cp.E)
	}
	return out
}

// applyUnnested reduces rel by the (anti/semi)join that unnests one
// linking predicate against the child view.
func (e *Executor) applyUnnested(rel, view *relation.Relation, edge *sql.LinkEdge, corr expr.Expr) (*relation.Relation, error) {
	switch edge.Kind {
	case sql.Exists:
		return algebra.SemiJoin(rel, view, corr)
	case sql.NotExists:
		return algebra.AntiJoin(rel, view, corr)
	}
	la, err := e.q.LinkedAttr(edge.Child)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	left, err := e.leftExpr(edge)
	if err != nil {
		return nil, err
	}
	switch edge.Kind {
	case sql.In:
		return algebra.SemiJoin(rel, view, expr.And(corr, expr.Compare(expr.Eq, left, expr.Col(la))))
	case sql.CmpSome:
		return algebra.SemiJoin(rel, view, expr.And(corr, expr.Compare(edge.Cmp, left, expr.Col(la))))
	case sql.NotIn:
		// A NOT IN S ≡ A ▷_{A=B} S — sound only under the NOT NULL
		// constraints the planner verified.
		return algebra.AntiJoin(rel, view, expr.And(corr, expr.Compare(expr.Eq, left, expr.Col(la))))
	case sql.CmpAll:
		// A θALL S ≡ A ▷_{A ¬θ B} S under the same constraints.
		return algebra.AntiJoin(rel, view, expr.And(corr, expr.Compare(edge.Cmp.Negate(), left, expr.Col(la))))
	}
	return nil, fmt.Errorf("%w: linking operator %v", ErrUnsupported, edge.Kind)
}

func (e *Executor) leftExpr(edge *sql.LinkEdge) (expr.Expr, error) {
	switch l := edge.Pred.Left.(type) {
	case *sql.ColRef:
		r, ok := e.q.Resolve(l)
		if !ok {
			return nil, fmt.Errorf("%w: unresolved linking attribute %s", ErrUnsupported, l)
		}
		return expr.Col(r.Name), nil
	case *sql.Lit:
		return expr.Lit{V: l.V}, nil
	}
	return nil, fmt.Errorf("%w: linking attribute %s", ErrUnsupported, edge.Pred.Left)
}
