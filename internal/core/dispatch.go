package core

import (
	"nra/internal/exec"
	"nra/internal/expr"
	"nra/internal/relation"
	"nra/internal/vec"
)

// Physical-operator dispatch: every join and fused nest/linking-selection
// the planner emits goes through these helpers, which run the batch
// kernel when the vectorization gate and the operator's shape allow it
// and the row operator otherwise. Both produce byte-identical output, so
// the choice is purely physical.

// join executes l ⋈_on r.
func (p *planner) join(l, r *relation.Relation, on expr.Expr) (*relation.Relation, error) {
	if out, done, err := p.vecJoin(l, r, on, false); done {
		return out, err
	}
	return exec.Join(p.ec, l, r, on, false)
}

// outerJoin executes l ⟕_on r.
func (p *planner) outerJoin(l, r *relation.Relation, on expr.Expr) (*relation.Relation, error) {
	if out, done, err := p.vecJoin(l, r, on, true); done {
		return out, err
	}
	return exec.Join(p.ec, l, r, on, true)
}

// vecJoin tries the batched-probe hash join. done is false when the
// join must run on the row path instead (gate closed, input too small,
// or a shape with no batch kernel — the last recorded as a vec note).
// Input batches come from the planner's batch cache when an upstream
// batch operator produced them; the output batch is cached in turn, so
// a fully batchable reduce→join→nest chain converts each column once.
func (p *planner) vecJoin(l, r *relation.Relation, on expr.Expr, outer bool) (out *relation.Relation, done bool, err error) {
	op := "join"
	if outer {
		op = "outer join"
	}
	if p.vecGate() != "" {
		return nil, false, nil
	}
	if !p.vecCostOK(float64(l.Len() + r.Len())) {
		p.vecNote(op, "below vectorization threshold")
		return nil, false, nil
	}
	out, ob, reason, err := exec.VecHashJoin(p.ec, l, r, p.vecCache[l], p.vecCache[r], on, outer)
	if err != nil {
		return nil, true, err
	}
	if reason != "" {
		p.vecNote(op, reason)
		return nil, false, nil
	}
	p.vecPut(out, ob)
	return out, true, nil
}

// vecPut records rel's column-vector form for downstream batch
// operators; vecCache is keyed by relation identity, sound because
// relations are immutable during query execution.
func (p *planner) vecPut(rel *relation.Relation, b *vec.Batch) {
	if p.vecCache == nil {
		p.vecCache = make(map[*relation.Relation]*vec.Batch)
	}
	p.vecCache[rel] = b
}

// nestLink executes the fused nest + linking selection.
func (p *planner) nestLink(rel *relation.Relation, keyCols, by []string, spec *exec.LinkSpec, pad []string) (*relation.Relation, error) {
	if p.vecGate() == "" {
		if !p.vecCostOK(float64(rel.Len())) {
			p.vecNote("nestlink", "below vectorization threshold")
		} else {
			out, reason, err := exec.VecNestLink(p.ec, rel, p.vecCache[rel], keyCols, by, spec, pad)
			if err != nil {
				return nil, err
			}
			if reason == "" {
				return out, nil
			}
			p.vecNote("nestlink", reason)
		}
	}
	return exec.NestLink(p.ec, rel, keyCols, by, spec, pad)
}

// nestLinkChain executes the fully fused nest chain.
func (p *planner) nestLinkChain(rel *relation.Relation, levels []exec.ChainLevel, outBy []string) (*relation.Relation, error) {
	if p.vecGate() == "" {
		if !p.vecCostOK(float64(rel.Len())) {
			p.vecNote("nestlinkchain", "below vectorization threshold")
		} else {
			out, reason, err := exec.VecNestLinkChain(p.ec, rel, p.vecCache[rel], levels, outBy)
			if err != nil {
				return nil, err
			}
			if reason == "" {
				return out, nil
			}
			p.vecNote("nestlinkchain", reason)
		}
	}
	return exec.NestLinkChain(p.ec, rel, levels, outBy)
}
