package exec

import (
	"fmt"

	"nra/internal/expr"
	"nra/internal/obsv"
	"nra/internal/relation"
	"nra/internal/value"
)

// Iterator is the classical volcano interface: Open prepares the
// operator under a per-query ExecContext (which carries cancellation,
// the memory budget and fault hooks down the tree), Next produces one
// tuple at a time (ok=false at end of stream), Close releases state.
// Operators compose into pipelines that never materialise intermediate
// results — the execution style §4.2.2's pipelining argument assumes.
//
// Contract points every implementation honours:
//   - Open(ec) passes ec to its inputs' Open and retains it for the
//     operator's own checkpoints; cancellation is observed at operator
//     boundaries (between tuples or chunks), never only at end of
//     stream.
//   - Close is idempotent, safe before the first Next (even before
//     Open), and closes *all* inputs exactly once — an input may own
//     resources (goroutines, spill files) beyond its tuple stream.
//   - After an error or cancellation, Close still releases everything;
//     no goroutine or temp file outlives the query's ExecContext.
type Iterator interface {
	Open(ec *ExecContext) error
	Next() (relation.Tuple, bool, error)
	Close() error
	// Schema describes the produced tuples.
	Schema() *relation.Schema
}

// Drain runs an iterator to completion under ec and materialises its
// output.
func Drain(ec *ExecContext, it Iterator) (*relation.Relation, error) {
	if err := it.Open(ec); err != nil {
		it.Close()
		return nil, err
	}
	defer it.Close()
	out := relation.New(it.Schema())
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out.Append(t)
	}
}

// Scan streams a materialised relation.
type Scan struct {
	Rel *relation.Relation
	pos int
	ec  *ExecContext
	sp  *obsv.Span
}

// NewScan returns a scan over rel.
func NewScan(rel *relation.Relation) *Scan { return &Scan{Rel: rel} }

// Open positions the scan at the first tuple and opens its span.
func (s *Scan) Open(ec *ExecContext) error {
	s.pos, s.ec = 0, ec
	if ec.Tracing() {
		s.sp = ec.StartSpan("scan "+s.Rel.Schema.Name, obsv.KindScan)
	}
	return nil
}

// Close ends the scan's span (rows in = the relation's cardinality,
// rows out = tuples actually consumed).
func (s *Scan) Close() error {
	if s.sp != nil {
		s.sp.AddRowsIn(int64(s.Rel.Len()))
		s.sp.AddRowsOut(int64(s.pos))
		s.sp.End()
		s.sp = nil
	}
	return nil
}

// Schema returns the scanned relation's schema.
func (s *Scan) Schema() *relation.Schema { return s.Rel.Schema }

// Next returns the next tuple, checking governance every 256 tuples.
func (s *Scan) Next() (relation.Tuple, bool, error) {
	if s.pos&255 == 0 {
		if err := s.ec.Check("scan"); err != nil {
			return relation.Tuple{}, false, err
		}
	}
	if s.pos >= s.Rel.Len() {
		return relation.Tuple{}, false, nil
	}
	t := s.Rel.Tuples[s.pos]
	s.pos++
	return t, true, nil
}

// Filter streams the input tuples satisfying a predicate (3VL: only True
// passes).
type Filter struct {
	In   Iterator
	Pred expr.Expr

	compiled *expr.Compiled
}

// NewFilter wraps in with predicate pred (nil = pass-through).
func NewFilter(in Iterator, pred expr.Expr) *Filter { return &Filter{In: in, Pred: pred} }

// Open opens the input and compiles the predicate against its schema.
func (f *Filter) Open(ec *ExecContext) error {
	if err := f.In.Open(ec); err != nil {
		return err
	}
	if f.Pred == nil {
		f.compiled = nil
		return nil
	}
	c, err := expr.Compile(f.Pred, f.In.Schema())
	if err != nil {
		return fmt.Errorf("filter: %w", err)
	}
	f.compiled = c
	return nil
}

// Close closes the input.
func (f *Filter) Close() error { return f.In.Close() }

// Schema returns the input's schema (filtering drops no columns).
func (f *Filter) Schema() *relation.Schema { return f.In.Schema() }

// Next returns the next input tuple whose predicate is True.
func (f *Filter) Next() (relation.Tuple, bool, error) {
	for {
		t, ok, err := f.In.Next()
		if err != nil || !ok {
			return t, ok, err
		}
		if f.compiled == nil {
			return t, true, nil
		}
		tri, err := f.compiled.Truth(t)
		if err != nil {
			return relation.Tuple{}, false, err
		}
		if tri.IsTrue() {
			return t, true, nil
		}
	}
}

// Project streams a column subset of its input.
type Project struct {
	In   Iterator
	Cols []string

	idx    []int
	schema *relation.Schema
}

// NewProject projects in onto cols.
func NewProject(in Iterator, cols []string) *Project { return &Project{In: in, Cols: cols} }

// Open opens the input and resolves the projected column indexes.
func (p *Project) Open(ec *ExecContext) error {
	if err := p.In.Open(ec); err != nil {
		return err
	}
	in := p.In.Schema()
	p.idx = p.idx[:0]
	p.schema = &relation.Schema{Name: in.Name}
	for _, c := range p.Cols {
		j := in.ColIndex(c)
		if j < 0 {
			return fmt.Errorf("project: no column %q in %s", c, in)
		}
		p.idx = append(p.idx, j)
		p.schema.Cols = append(p.schema.Cols, in.Cols[j])
	}
	return nil
}

// Close closes the input.
func (p *Project) Close() error { return p.In.Close() }

// Schema returns the projected schema (set by Open).
func (p *Project) Schema() *relation.Schema { return p.schema }

// Next returns the next input tuple restricted to the projected columns.
func (p *Project) Next() (relation.Tuple, bool, error) {
	t, ok, err := p.In.Next()
	if err != nil || !ok {
		return relation.Tuple{}, ok, err
	}
	out := relation.Tuple{Atoms: make([]value.Value, len(p.idx))}
	for i, j := range p.idx {
		out.Atoms[i] = t.Atoms[j]
	}
	return out, true, nil
}

// Limit streams at most N tuples after skipping Offset.
type Limit struct {
	In     Iterator
	N      int // -1 = unlimited
	Offset int

	emitted, skipped int
}

// NewLimit wraps in with a LIMIT/OFFSET window.
func NewLimit(in Iterator, n, offset int) *Limit { return &Limit{In: in, N: n, Offset: offset} }

// Open resets the window counters and opens the input.
func (l *Limit) Open(ec *ExecContext) error {
	l.emitted, l.skipped = 0, 0
	return l.In.Open(ec)
}

// Close closes the input.
func (l *Limit) Close() error { return l.In.Close() }

// Schema returns the input's schema.
func (l *Limit) Schema() *relation.Schema { return l.In.Schema() }

// Next returns the next tuple inside the LIMIT/OFFSET window.
func (l *Limit) Next() (relation.Tuple, bool, error) {
	for {
		if l.N >= 0 && l.emitted >= l.N {
			return relation.Tuple{}, false, nil
		}
		t, ok, err := l.In.Next()
		if err != nil || !ok {
			return t, ok, err
		}
		if l.skipped < l.Offset {
			l.skipped++
			continue
		}
		l.emitted++
		return t, true, nil
	}
}

// HashJoin streams the probe (left) side against a hash table built over
// the build (right) side on Open — an inner or left-outer equi-join with
// optional residual predicate, matching algebra.Join/LeftOuterJoin.
//
// Under a memory budget, a build side whose tracked footprint exceeds
// the remaining budget degrades to the grace-style chunked join
// (joinSpill): the probe side is materialised, the build side processed
// one budget-sized chunk at a time through spill files, and the merged
// result — byte-identical to the in-memory join — is streamed from Next.
type HashJoin struct {
	Left, Right Iterator
	On          expr.Expr
	Outer       bool

	ec       *ExecContext
	schema   *relation.Schema
	build    *relation.Relation
	table    map[string][]int
	lk, rk   []int
	residual *expr.Compiled
	pad      relation.Tuple
	reserved int64 // build-side bytes charged against the budget
	closed   bool

	spilled  *relation.Relation // non-nil: stream this instead of probing
	spillPos int
	sp       *obsv.Span
	inRows   int64 // probe tuples consumed
	outRows  int64 // joined tuples produced

	cur     relation.Tuple // current probe tuple
	matches []int
	mi      int
	matched bool
	have    bool
	loopPos int // nested-loop fallback position
	useLoop bool
	steps   int
}

// NewHashJoin joins left ⋈/⟕ right on the given condition.
func NewHashJoin(left, right Iterator, on expr.Expr, outer bool) *HashJoin {
	return &HashJoin{Left: left, Right: right, On: on, Outer: outer}
}

// Schema returns the joined schema (set by Open).
func (h *HashJoin) Schema() *relation.Schema { return h.schema }

// Open builds the hash table from the build side (spilling to a grace
// join when over budget) and prepares the probe side.
func (h *HashJoin) Open(ec *ExecContext) (err error) {
	defer Guard("hashjoin/open", &err)
	h.ec = ec
	h.spilled, h.spillPos, h.reserved, h.steps = nil, 0, 0, 0
	h.inRows, h.outRows = 0, 0
	h.closed = false
	// The span opens before the inputs so their spans nest under it.
	if ec.Tracing() {
		h.sp = ec.StartSpan("hashjoin", obsv.KindJoin)
	}
	if err := h.Left.Open(ec); err != nil {
		return err
	}
	// Materialise the build side without closing it: Close releases both
	// inputs, per the iterator contract (an input may own resources —
	// goroutines, partitions — beyond its tuple stream).
	if err := h.Right.Open(ec); err != nil {
		return err
	}
	h.build = relation.New(h.Right.Schema())
	for {
		t, ok, err := h.Right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h.build.Append(t)
	}
	ls, rs := h.Left.Schema(), h.build.Schema
	h.schema = &relation.Schema{Name: ls.Name}
	h.schema.Cols = append(append([]relation.Column{}, ls.Cols...), rs.Cols...)
	seen := map[string]bool{}
	for _, c := range h.schema.Cols {
		if seen[c.Name] {
			return fmt.Errorf("hashjoin: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}

	h.lk, h.rk, h.residual = nil, nil, nil
	lk, rk, residual := extractEquiKeys(h.On, ls, rs)
	h.lk, h.rk = lk, rk
	if residual != nil {
		c, err := expr.Compile(residual, h.schema)
		if err != nil {
			return fmt.Errorf("hashjoin: %w", err)
		}
		h.residual = c
	}

	// Budget the build side (tuples + hash table). When it does not fit —
	// or a fault hook forces the slow path — degrade to the chunked
	// spill join instead of building the full table.
	if ec.Governed() {
		bytes := tuplesBytes(h.build.Tuples)
		spill := ec.ForceSpill("hashjoin")
		if !spill {
			ok, err := ec.TryReserve("hashjoin", bytes)
			if err != nil {
				return err
			}
			if ok {
				h.reserved = bytes
			} else {
				spill = true
			}
		}
		if spill {
			probe := relation.New(ls)
			for {
				if probe.Len()&255 == 0 {
					if err := ec.Check("hashjoin/probe"); err != nil {
						return err
					}
				}
				t, ok, err := h.Left.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				probe.Append(t)
			}
			out, err := joinSpill(ec, "hashjoin", probe, h.build, h.lk, h.rk, h.residual, h.schema, h.Outer)
			if err != nil {
				return err
			}
			h.inRows = int64(probe.Len())
			h.spilled = out
			return nil
		}
	}

	h.useLoop = len(h.lk) == 0
	if !h.useLoop {
		h.table = make(map[string][]int, h.build.Len())
	rows:
		for i, t := range h.build.Tuples {
			for _, k := range h.rk {
				if t.Atoms[k].IsNull() {
					continue rows
				}
			}
			key := t.KeyOn(h.rk)
			h.table[key] = append(h.table[key], i)
		}
	}
	h.pad = relation.Tuple{Atoms: make([]value.Value, len(rs.Cols))}
	h.have = false
	return nil
}

// Close releases both inputs and the budget reservation. The right side
// is closed here (not when its stream is drained in Open), so inputs that
// own state past end-of-stream are released exactly once, whether or not
// Open succeeded in between. Close is idempotent and safe before Open or
// the first Next.
// Close releases the build table, closes both inputs, and ends the
// join's span.
func (h *HashJoin) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	if h.reserved > 0 {
		h.ec.Release(h.reserved)
		h.reserved = 0
	}
	err := h.Left.Close()
	if rerr := h.Right.Close(); err == nil {
		err = rerr
	}
	if h.sp != nil {
		if h.build != nil {
			h.sp.AddRowsIn(int64(h.build.Len()))
		}
		h.sp.AddRowsIn(h.inRows)
		h.sp.AddRowsOut(h.outRows)
		h.sp.End()
		h.sp = nil
	}
	return err
}

// Next returns the next joined tuple (or, for an outer join, the next
// NULL-padded probe tuple with no match).
func (h *HashJoin) Next() (t relation.Tuple, ok bool, err error) {
	defer Guard("hashjoin/next", &err)
	if h.spilled != nil {
		if h.spillPos >= h.spilled.Len() {
			return relation.Tuple{}, false, nil
		}
		t := h.spilled.Tuples[h.spillPos]
		h.spillPos++
		h.outRows++
		return t, true, nil
	}
	for {
		h.steps++
		if h.steps&255 == 0 {
			if err := h.ec.Check("hashjoin/next"); err != nil {
				return relation.Tuple{}, false, err
			}
		}
		if !h.have {
			t, ok, err := h.Left.Next()
			if err != nil || !ok {
				return relation.Tuple{}, ok, err
			}
			h.cur, h.have, h.matched = t, true, false
			h.inRows++
			h.mi, h.loopPos = 0, 0
			if !h.useLoop {
				h.matches = nil
				allKeys := true
				for _, k := range h.lk {
					if h.cur.Atoms[k].IsNull() {
						allKeys = false
						break
					}
				}
				if allKeys {
					h.matches = h.table[h.cur.KeyOn(h.lk)]
				}
			}
		}
		var candidate int
		var exhausted bool
		if h.useLoop {
			if h.loopPos >= h.build.Len() {
				exhausted = true
			} else {
				candidate = h.loopPos
				h.loopPos++
			}
		} else {
			if h.mi >= len(h.matches) {
				exhausted = true
			} else {
				candidate = h.matches[h.mi]
				h.mi++
			}
		}
		if exhausted {
			h.have = false
			if h.Outer && !h.matched {
				h.outRows++
				return h.concat(h.cur, h.pad), true, nil
			}
			continue
		}
		joined := h.concat(h.cur, h.build.Tuples[candidate])
		if h.residual != nil {
			tri, err := h.residual.Truth(joined)
			if err != nil {
				return relation.Tuple{}, false, err
			}
			if !tri.IsTrue() {
				continue
			}
		}
		h.matched = true
		h.outRows++
		return joined, true, nil
	}
}

func (h *HashJoin) concat(l, r relation.Tuple) relation.Tuple {
	t := relation.Tuple{Atoms: make([]value.Value, 0, len(l.Atoms)+len(r.Atoms))}
	t.Atoms = append(append(t.Atoms, l.Atoms...), r.Atoms...)
	return t
}

// extractEquiKeys mirrors algebra's equi-conjunct extraction for the
// iterator pipeline.
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
