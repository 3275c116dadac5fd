package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"nra"
	"nra/internal/bench"
	"nra/internal/catalog"
	"nra/internal/service"
	"nra/internal/value"
)

// workload is one traffic mix driven against a running nrad.
type workload interface {
	// drive runs the clients through the warm-up and the measured window.
	drive(srv *server, window time.Duration, traced bool) (*record, error)
	// verify checks every response of the run and marks the failed ones;
	// it returns the number of failed statements.
	verify(rec *record) int
	// replay re-runs the recorded request stream in-process with a span
	// around every call into a layer and returns the per-layer metrics.
	replay(pristine, tmp string, rec *record, seconds int) (map[string]metric, error)
}

// workloads maps each workload name to the function that builds its
// statements and references. README.md says why each was chosen.
var workloads = map[string]func(cat *catalog.Catalog, pristine string, seed uint64) (workload, error){
	"paper-analytic": preparePaper,
	"short-lookup":   prepareShortLookup,
	"write-mix":      prepareWriteMix,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sample is one statement a client sent.
type sample struct {
	stmt   int  // index into the workload's statement table
	write  bool // an exec (DML) statement
	start  time.Time
	dur    time.Duration // send to last byte of the response
	resp   []byte        // raw response
	err    error         // transport failure
	epoch  uint64        // write-mix reads: the pinned epoch
	failed bool          // set by verify
}

// record is everything a run observed.
type record struct {
	warm    []sample // checked, not timed
	samples []sample // the measured window
	window  time.Duration
	queued  float64 // service.queued_ratio, sampled in traced runs
}

// closedLoop runs one client that sends its next statement only after
// the previous reply arrived, through the warm-up and then the measured
// window; step sends the i-th statement. A statement belongs to the
// window when it starts inside it.
func closedLoop(window time.Duration, step func(i int) sample, pollStats func(stop <-chan struct{}) float64) *record {
	windowStart := time.Now().Add(warmup)
	windowEnd := windowStart.Add(window)
	rec := &record{}
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		if pollStats == nil {
			return
		}
		select {
		case <-time.After(time.Until(windowStart)):
			rec.queued = pollStats(stop)
		case <-stop:
		}
	}()
	last := windowStart
	for i := 0; time.Now().Before(windowEnd); i++ {
		s := step(i)
		if s.start.Before(windowStart) {
			rec.warm = append(rec.warm, s)
			continue
		}
		rec.samples = append(rec.samples, s)
		if end := s.start.Add(s.dur); end.After(last) {
			last = end
		}
	}
	close(stop)
	<-polled
	rec.window = last.Sub(windowStart)
	return rec
}

// queuedSampler polls the server's admission gauges until stop closes
// and returns the share of admitted-or-waiting statements that waited.
func queuedSampler(srv *server) func(stop <-chan struct{}) float64 {
	return func(stop <-chan struct{}) float64 {
		var queued, busy int64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				if queued+busy == 0 {
					return 0
				}
				return float64(queued) / float64(queued+busy)
			case <-tick.C:
				if st, err := srv.stats(); err == nil {
					queued += st.Queued
					busy += st.Queued + st.Inflight
				}
			}
		}
	}
}

// reference is the expected result of one read statement: its column
// names and its canonically sorted rows encoded exactly as nrad encodes
// them.
type reference struct {
	columns []string
	rows    []byte // nil for an empty result (the wire omits it)
}

// newReference canonicalises a result the way the service renders it.
func newReference(res *nra.Result) (reference, error) {
	res.Sort()
	ref := reference{columns: res.Columns()}
	if res.NumRows() == 0 {
		return ref, nil
	}
	b, err := json.Marshal(res.Rows())
	if err != nil {
		return ref, err
	}
	ref.rows = b
	return ref, nil
}

// matches reports whether a decoded query response equals the reference.
func (r reference) matches(w *wireResponse) bool {
	if !w.OK || len(w.Columns) != len(r.columns) {
		return false
	}
	for i, c := range r.columns {
		if w.Columns[i] != c {
			return false
		}
	}
	return bytes.Equal(w.Rows, r.rows)
}

// readWorkload is a read-only workload over a fixed statement table whose
// references are computed in-process before the server starts. One
// client sends the statements.
type readWorkload struct {
	stmts []string
	reqs  [][]byte // encoded service.Request per statement
	refs  []reference
	http  bool            // HTTP/JSON with per-request sessions; else line protocol
	next  func(i int) int // the seeded statement stream
}

// newReadWorkload computes each statement's reference with eval.
func newReadWorkload(stmts []string, eval func(i int) (*nra.Result, error)) (*readWorkload, error) {
	w := &readWorkload{stmts: stmts}
	for i, s := range stmts {
		res, err := eval(i)
		if err != nil {
			return nil, fmt.Errorf("reference for %q: %w", s, err)
		}
		r, err := newReference(res)
		if err != nil {
			return nil, err
		}
		w.refs = append(w.refs, r)
		w.reqs = append(w.reqs, mustJSON(service.Request{Op: service.OpQuery, SQL: s}))
	}
	return w, nil
}

func (w *readWorkload) drive(srv *server, window time.Duration, traced bool) (*record, error) {
	var step func(i int) sample
	if w.http {
		tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
		defer tr.CloseIdleConnections()
		hc := &http.Client{Transport: tr}
		url := "http://" + srv.httpAddr + "/v1/query"
		step = func(i int) sample {
			k := w.next(i)
			s := sample{stmt: k, start: time.Now()}
			resp, err := hc.Post(url, "application/json", bytes.NewReader(w.reqs[k]))
			if err == nil {
				s.resp, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			s.dur, s.err = time.Since(s.start), err
			return s
		}
	} else {
		lc, err := dialLine(srv.lineAddr)
		if err != nil {
			return nil, err
		}
		defer lc.close()
		step = func(i int) sample {
			k := w.next(i)
			s := sample{stmt: k, start: time.Now()}
			s.resp, s.dur, s.err = lc.roundTrip(w.reqs[k])
			return s
		}
	}
	var poll func(<-chan struct{}) float64
	if traced {
		poll = queuedSampler(srv)
	}
	return closedLoop(window, step, poll), nil
}

func (w *readWorkload) verify(rec *record) int {
	failed := 0
	check := func(s *sample) {
		var resp wireResponse
		if s.err != nil || json.Unmarshal(s.resp, &resp) != nil || !w.refs[s.stmt].matches(&resp) {
			s.failed = true
			failed++
		}
	}
	for i := range rec.warm {
		check(&rec.warm[i])
	}
	for i := range rec.samples {
		check(&rec.samples[i])
	}
	return failed
}

// preparePaper builds the paper's Query 1 (fig4), 2b (fig6), 3b (fig8a)
// and 3c (fig9a) at their four sweep points. The references come from
// the nested-original strategy (the paper's §4.1 top-down plan, a
// different operator pipeline from the default bottom-up plan): the
// naive oracle needs minutes per statement at this scale.
func preparePaper(cat *catalog.Catalog, pristine string, _ uint64) (workload, error) {
	env := &bench.Env{Cat: cat}
	var stmts []string
	for _, id := range []string{"fig4", "fig6", "fig8a", "fig9a"} {
		qs, err := env.QuerySQL(id)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, qs...)
	}
	db, err := nra.OpenDir(pristine)
	if err != nil {
		return nil, err
	}
	w, err := newReadWorkload(stmts, func(i int) (*nra.Result, error) {
		return db.QueryWith(stmts[i], nra.NestedOriginal)
	})
	if err != nil {
		return nil, err
	}
	w.next = func(i int) int { return i % len(stmts) }
	return w, nil
}

// lookupTemplate is a small correlated subquery over the TPC-H
// dimension tables. Its outer block is restricted to the rows whose key
// column lies in [k, k+width] for the template's first literal k.
type lookupTemplate struct {
	sql          string
	outer, key   string
	width        int
	keys, thresh []int // literal values: outer keys, then an optional threshold
}

// shortLookupTemplates use all six linking operators. Three read only
// region, nation and supplier (at most 100 rows); three scan customer or
// part (up to 2,000 rows), which bounds how little the engine can do.
// Their literal combinations give 1,418 distinct statements.
var shortLookupTemplates = []lookupTemplate{
	{sql: `select n_nationkey, n_name from nation where n_regionkey between %d and %d and exists (select * from supplier where s_nationkey = n_nationkey and s_acctbal > %d)`,
		outer: "nation", key: "n_regionkey", keys: steps(0, 4, 1), thresh: steps(-1000, 8750, 250)},
	{sql: `select n_nationkey, n_name from nation where n_regionkey between %d and %d and not exists (select * from supplier where s_nationkey = n_nationkey and s_acctbal > %d)`,
		outer: "nation", key: "n_regionkey", keys: steps(0, 4, 1), thresh: steps(-1000, 8750, 250)},
	{sql: `select c_custkey, c_name from customer where c_custkey between %d and %d and c_nationkey in (select s_nationkey from supplier where s_nationkey = c_nationkey and s_acctbal > c_acctbal)`,
		outer: "customer", key: "c_custkey", width: 20, keys: steps(1, 1480, 7)},
	{sql: `select s_suppkey, s_name from supplier where s_suppkey between %d and %d and s_nationkey not in (select n_nationkey from nation where n_nationkey = s_nationkey and n_regionkey = %d)`,
		outer: "supplier", key: "s_suppkey", width: 10, keys: steps(1, 90, 2), thresh: steps(0, 4, 1)},
	{sql: `select s_suppkey, s_acctbal from supplier where s_nationkey between %d and %d and s_acctbal > any (select c_acctbal from customer where c_nationkey = s_nationkey and c_acctbal > %d)`,
		outer: "supplier", key: "s_nationkey", keys: steps(0, 24, 1), thresh: steps(-1000, 2750, 250)},
	{sql: `select p_partkey, p_retailprice from part where p_partkey between %d and %d and p_retailprice <= all (select s_acctbal from supplier where s_nationkey = p_size)`,
		outer: "part", key: "p_partkey", width: 10, keys: steps(1, 1990, 11)},
}

func steps(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

// shortLookupZipf is the skew of the literals' popularity within each
// template. Over 1,418 statements it keeps the plan cache's 256 entries
// about 88% hit while still evicting steadily (about 90 evictions per
// 1,000 statements).
const shortLookupZipf = 1.5

// prepareShortLookup computes each statement's reference with the naive
// oracle over a copy of the tables whose outer table holds only the rows
// the statement's key range selects; the other rows fail a conjunct of
// the outer WHERE that reads only the outer row, so they cannot appear
// in the result. This keeps 1,418 oracle runs to about a second.
func prepareShortLookup(cat *catalog.Catalog, _ string, seed uint64) (workload, error) {
	type lookup struct{ t, k int }
	var stmts []string
	var lits []lookup
	first := make([]int, len(shortLookupTemplates)+1) // template t's statements start at first[t]
	for t, tmpl := range shortLookupTemplates {
		first[t] = len(stmts)
		for _, k := range tmpl.keys {
			if tmpl.thresh == nil {
				stmts = append(stmts, fmt.Sprintf(tmpl.sql, k, k+tmpl.width))
				lits = append(lits, lookup{t, k})
			}
			for _, thr := range tmpl.thresh {
				stmts = append(stmts, fmt.Sprintf(tmpl.sql, k, k+tmpl.width, thr))
				lits = append(lits, lookup{t, k})
			}
		}
	}
	first[len(shortLookupTemplates)] = len(stmts)

	// One database per template holds the full inner tables; the outer
	// table is recreated per statement with only its selected rows.
	dbs := make([]*nra.DB, len(shortLookupTemplates))
	for t, tmpl := range shortLookupTemplates {
		dbs[t] = nra.Open()
		for _, name := range []string{"region", "nation", "supplier", "customer", "part"} {
			if name == tmpl.outer {
				continue
			}
			if err := copyTable(dbs[t], cat, name, nil); err != nil {
				return nil, err
			}
		}
	}
	w, err := newReadWorkload(stmts, func(i int) (*nra.Result, error) {
		l := lits[i]
		tmpl := shortLookupTemplates[l.t]
		db := dbs[l.t]
		keep := func(v value.Value) bool {
			return v.Int64() >= int64(l.k) && v.Int64() <= int64(l.k+tmpl.width)
		}
		if err := copyTable(db, cat, tmpl.outer, func(t *catalog.Table, row []value.Value) bool {
			return keep(row[t.Rel.Schema.ColIndex(tmpl.key)])
		}); err != nil {
			return nil, err
		}
		res, err := db.QueryWith(stmts[i], nra.Reference)
		if _, derr := db.Exec("drop table " + tmpl.outer); derr != nil && err == nil {
			err = derr
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}
	// One HTTP connection: with two, the clients and the server saturate
	// two cores and the tail latency measures CPU queueing, which swings
	// with the host's load from run to run.
	w.http = true
	// The client cycles through the templates, so the mix of statement
	// shapes is the same for every seed. Within a template a Zipf draw
	// picks the literal; the seed decides which literals are popular.
	nt := len(shortLookupTemplates)
	rng := rand.New(rand.NewSource(int64(seed)))
	perms := make([][]int, nt)
	zipfs := make([]*rand.Zipf, nt)
	for t := range perms {
		perms[t] = rng.Perm(first[t+1] - first[t])
		zipfs[t] = rand.NewZipf(rand.New(rand.NewSource(int64(seed)*1000+int64(t))), shortLookupZipf, 1, uint64(len(perms[t])-1))
	}
	w.next = func(i int) int {
		t := i % nt
		return first[t] + perms[t][zipfs[t].Uint64()]
	}
	return w, nil
}

// copyTable creates table name in db with the rows of cat's table that
// keep accepts (all rows when keep is nil).
func copyTable(db *nra.DB, cat *catalog.Catalog, name string, keep func(*catalog.Table, []value.Value) bool) error {
	t, err := cat.Table(name)
	if err != nil {
		return err
	}
	var rows [][]any
	for _, tup := range t.Rel.Tuples {
		if keep == nil || keep(t, tup.Atoms) {
			rows = append(rows, goRow(tup.Atoms))
		}
	}
	return db.CreateTable(name, t.Rel.Schema.ColNames(), t.PK, rows...)
}
