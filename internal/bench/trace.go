package bench

import (
	"fmt"
	"time"

	"nra/internal/core"
	"nra/internal/obsv"
	"nra/internal/sql"
)

// TraceFigure is one traced benchmark query with its rendered span
// waterfall — where the wall time of the paper's workload queries goes.
type TraceFigure struct {
	ID    string
	Title string
	SQL   string
	Text  string // the rendered obsv.Waterfall
}

// TraceWaterfalls executes the three workload families (Query 1, 2b,
// 3b(a), 3c(a)) at their largest sweep point under the fully optimized
// configuration with tracing on, and renders each query's span waterfall.
func (e *Env) TraceWaterfalls() ([]*TraceFigure, error) {
	e.Cat.AnalyzeAll()
	var out []*TraceFigure
	for _, w := range e.ablationWorkloads("trace", "span waterfall") {
		pts, err := w.build()
		if err != nil {
			return nil, err
		}
		for _, pq := range pts {
			sel, err := sql.Parse(pq.sql)
			if err != nil {
				return nil, err
			}
			q, err := sql.Analyze(sel, e.Cat)
			if err != nil {
				return nil, err
			}
			opt := core.Optimized()
			opt.Tracer = obsv.NewTracer()
			opt.Label = pq.sql
			if _, err := core.Execute(q, opt); err != nil {
				return nil, err
			}
			out = append(out, &TraceFigure{
				ID:    w.id,
				Title: w.title,
				SQL:   pq.sql,
				Text:  obsv.Waterfall(opt.Tracer.Finish()),
			})
		}
	}
	return out, nil
}

// TracingAblation measures the overhead of span tracing: the fully
// optimized configuration untraced versus with a per-query tracer. The
// acceptance bar is ≤ 5% on these workloads (tracing records only
// operator entry/exit and per reservation or spill, never per-tuple
// events).
func (e *Env) TracingAblation() ([]*Figure, error) {
	configs := []struct {
		name string
		mk   func() core.Options // fresh Options (and tracer) per execution
	}{
		{"untraced", core.Optimized},
		{"traced", func() core.Options {
			opt := core.Optimized()
			opt.Tracer = obsv.NewTracer()
			return opt
		}},
	}
	var figs []*Figure
	for _, w := range e.ablationWorkloads("tracing", "tracing overhead") {
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
			var reference int
			for i, c := range configs {
				best, rows, err := e.timeIt(func() (int, error) {
					out, err := core.Execute(q, c.mk())
					if err != nil {
						return 0, err
					}
					return out.Len(), nil
				})
				if err != nil {
					return nil, err
				}
				if i == 0 {
					reference = rows
				} else if rows != reference {
					return nil, fmt.Errorf("%s: %s returned %d rows, want %d", w.id, c.name, rows, reference)
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
