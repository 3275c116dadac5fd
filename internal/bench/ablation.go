package bench

import (
	"fmt"
	"time"

	"nra/internal/core"
	"nra/internal/relation"
	"nra/internal/sql"
)

// ablationConfig is one Options configuration measured by an ablation run.
type ablationConfig struct {
	name string
	opt  core.Options
}

// ablationWorkload is one query family measured at its largest sweep point.
type ablationWorkload struct {
	id    string
	title string
	build func() ([]pointQuery, error)
}

func (e *Env) ablationWorkloads(idPrefix, titleSuffix string) []ablationWorkload {
	return []ablationWorkload{
		{idPrefix + "-q1", "Query 1 (" + titleSuffix + ", largest point)", func() ([]pointQuery, error) {
			x2, err := e.quantile("orders", "o_orderdate", 1.0)
			if err != nil {
				return nil, err
			}
			return []pointQuery{{sql: fmt.Sprintf(`select o_orderkey, o_orderpriority from orders
where o_orderdate >= '1992-01-01' and o_orderdate < '%s'
  and o_totalprice > all (select l_extendedprice from lineitem
      where l_orderkey = o_orderkey
        and l_commitdate < l_receiptdate and l_shipdate < l_commitdate)`, x2.Text())}}, nil
		}},
		{idPrefix + "-q2b", "Query 2b (" + titleSuffix + ", largest point)", func() ([]pointQuery, error) {
			pts, err := e.query2("all")
			if err != nil {
				return nil, err
			}
			return pts[len(pts)-1:], nil
		}},
		{idPrefix + "-q3b", "Query 3b(a) (" + titleSuffix + ", largest point)", func() ([]pointQuery, error) {
			pts, err := e.query3("all", "not exists", "=", "=")
			if err != nil {
				return nil, err
			}
			return pts[len(pts)-1:], nil
		}},
		{idPrefix + "-q3c", "Query 3c(a) (" + titleSuffix + ", largest point)", func() ([]pointQuery, error) {
			pts, err := e.query3("any", "exists", "=", "=")
			if err != nil {
				return nil, err
			}
			return pts[len(pts)-1:], nil
		}},
	}
}

// runAblation measures every configuration on every workload. The first
// configuration's result is the reference; strictOrder additionally
// demands the same tuple order (the batch engine's parity guarantee),
// otherwise set equality suffices.
func (e *Env) runAblation(workloads []ablationWorkload, configs []ablationConfig, strictOrder bool) ([]*Figure, error) {
	var figs []*Figure
	for _, w := range workloads {
		pts, err := w.build()
		if err != nil {
			return nil, err
		}
		fig := &Figure{ID: w.id, Title: w.title}
		for _, pq := range pts {
			sel, err := sql.Parse(pq.sql)
			if err != nil {
				return nil, err
			}
			q, err := sql.Analyze(sel, e.Cat)
			if err != nil {
				return nil, err
			}
			point := Point{Times: make(map[string]time.Duration)}
			point.BlockSizes, err = e.blockSizes(q)
			if err != nil {
				return nil, err
			}
			point.Label = sizesLabel(point.BlockSizes)
			var reference *relation.Relation
			for _, c := range configs {
				opt := c.opt
				best, rows, err := e.timeIt(func() (int, error) {
					out, err := core.Execute(q, opt)
					if err != nil {
						return 0, err
					}
					if reference == nil {
						reference = out
					} else if err := sameResult(out, reference, strictOrder); err != nil {
						return 0, fmt.Errorf("%s: %s disagrees with %s: %w", w.id, c.name, configs[0].name, err)
					}
					return out.Len(), nil
				})
				if err != nil {
					return nil, err
				}
				point.Times[c.name] = best
				point.Rows = rows
			}
			fig.Points = append(fig.Points, point)
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

func sameResult(got, want *relation.Relation, strictOrder bool) error {
	if !strictOrder {
		if !got.EqualSet(want) {
			return fmt.Errorf("result set differs")
		}
		return nil
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d tuples, want %d", got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if got.Tuples[i].Key() != want.Tuples[i].Key() {
			return fmt.Errorf("tuple %d differs", i)
		}
	}
	return nil
}

// Ablation measures each §4.2 optimization in isolation on the three
// workload families, at the largest sweep point — the design-choice
// benchmarks DESIGN.md calls out. Every configuration's result is
// verified against the original approach.
func (e *Env) Ablation() ([]*Figure, error) {
	configs := []ablationConfig{
		{"original", core.Original()},
		{"fused-4.2.2", core.Options{Fused: true}},
		{"bottomup-4.2.3", core.Options{BottomUp: true, Fused: true}},
		{"pushdown-4.2.4", core.Options{NestPushdown: true}},
		{"positive-4.2.5", core.Options{PositiveRewrite: true}},
		{"optimized-all", core.Optimized()},
	}
	return e.runAblation(e.ablationWorkloads("ablation", "§4.2 options"), configs, false)
}

// CostAblation measures cost-based physical planning against the pure
// heuristic planner on the same workload families. "heuristic" switches
// the estimator off; "costbased" runs with fresh statistics collected on
// every table. Both configurations must return the same result set.
func (e *Env) CostAblation() ([]*Figure, error) {
	e.Cat.AnalyzeAll()
	heuristic := core.Optimized()
	heuristic.UseStats = false
	heuristic.CostBased = false
	configs := []ablationConfig{
		{"heuristic", heuristic},
		{"costbased", core.Optimized()},
	}
	return e.runAblation(e.ablationWorkloads("costbased", "cost-based vs heuristic"), configs, false)
}

// TwoVLAblation measures two-valued logic against standard 3VL on the
// negative-operator workload families: the same optimized planner, with
// and without Options.TwoValuedLogic, so the delta is exactly the 2VL
// antijoin fast path replacing the padding-aware linking operators.
// Verification (2VL must equal 3VL) is sound only on NULL-free data, so
// a configuration injecting NULLs is rejected.
func (e *Env) TwoVLAblation() ([]*Figure, error) {
	if e.cfg.NullFraction > 0 {
		return nil, fmt.Errorf("bench: 2VL ablation needs NULL-free data (NullFraction = %g)", e.cfg.NullFraction)
	}
	twoVL := core.Optimized()
	twoVL.TwoValuedLogic = true
	configs := []ablationConfig{
		{"threevalued", core.Optimized()},
		{"twovalued", twoVL},
	}
	return e.runAblation(e.ablationWorkloads("twovl", "2VL vs 3VL"), configs, false)
}

// VecAblation measures the batch-at-a-time operators against the serial
// row engine on the same workload families: the same optimized planner,
// with and without Options.Vectorized, so the delta is exactly the
// vectorized kernels (columnar scan/filter, batched-probe hash join,
// typed-sort nest + linking selection) replacing the per-tuple
// operators. Verification is tuple-for-tuple — the batch operators must
// reproduce the row engine's output exactly, order included.
func (e *Env) VecAblation() ([]*Figure, error) {
	vectorized := core.Optimized()
	vectorized.Vectorized = true
	configs := []ablationConfig{
		{"row-serial", core.Optimized()},
		{"vectorized", vectorized},
	}
	return e.runAblation(e.ablationWorkloads("vectorized", "batch vs row"), configs, true)
}
