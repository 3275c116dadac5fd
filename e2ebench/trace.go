package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nra"
	"nra/internal/catalog"
	"nra/internal/csvio"
	"nra/internal/obsv"
	"nra/internal/service"
	"nra/internal/sql"
)

// span is one timed call into a layer during the traced replay. All
// spans of one request share req.
type span struct {
	Req   int           `json:"req"`
	Layer string        `json:"layer"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// tracer keeps the replay's spans in memory and the per-request values
// the per-layer metrics are medians of.
type tracer struct {
	origin time.Time
	spans  []span
	vals   map[string][]float64
}

func newTracer() *tracer { return &tracer{origin: time.Now(), vals: map[string][]float64{}} }

// time runs f inside a span and returns its duration.
func (t *tracer) time(req int, layer string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.spans = append(t.spans, span{Req: req, Layer: layer, Start: start.Sub(t.origin), Dur: d})
	return d
}

func (t *tracer) add(name string, v float64) { t.vals[name] = append(t.vals[name], v) }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// engineKinds maps the engine's span kinds to per-layer metrics.
var engineKinds = map[string]string{
	obsv.KindPlan:      "core.plan_ms",
	obsv.KindQuery:     "core.finish_ms",
	obsv.KindScan:      "exec.scan_ms",
	obsv.KindJoin:      "exec.join_ms",
	obsv.KindGraceJoin: "exec.join_ms",
	obsv.KindNestLink:  "exec.nestlink_ms",
	obsv.KindChain:     "exec.nestlink_ms",
	obsv.KindSort:      "exec.sort_ms",
	obsv.KindExtSort:   "exec.sort_ms",
}

// engineMetrics lists engineKinds' metric names once each.
var engineMetrics = []string{"core.plan_ms", "core.finish_ms", "exec.scan_ms", "exec.join_ms", "exec.nestlink_ms", "exec.sort_ms"}

// replayDB opens the replay's durable database three times on fresh
// copies of the segment directory, timing the load (nra.OpenDirDurable)
// and ANALYZE (DB.Analyze) each time; it keeps the last one open. It
// also loads the catalog the replay binds statements against.
func replayDB(t *tracer, pristine, tmp string) (*nra.DB, string, *catalog.Catalog, error) {
	var db *nra.DB
	var dir string
	for i := 0; i < 3; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, "", nil, err
			}
		}
		dir = filepath.Join(tmp, fmt.Sprintf("replay-%d", i))
		if err := copyDir(pristine, dir); err != nil {
			return nil, "", nil, err
		}
		var err error
		t.add("csvio.load_ms", ms(t.time(-1, "csvio.load", func() { db, err = nra.OpenDirDurable(dir) })))
		if err != nil {
			return nil, "", nil, err
		}
		t.add("stats.analyze_ms", ms(t.time(-1, "stats.analyze", func() { err = db.Analyze() })))
		if err != nil {
			return nil, "", nil, err
		}
	}
	cat, err := csvio.Load(pristine)
	if err != nil {
		return nil, "", nil, err
	}
	return db, dir, cat, nil
}

// tracedRead replays one query: parse and bind against cat, the traced
// engine run, result sort and conversion, and the wire encoding. It
// returns the wall time of the traced sequence and the time the layer
// spans account for.
func tracedRead(t *tracer, db *nra.DB, cat *catalog.Catalog, req int, src string) (wall, covered time.Duration, err error) {
	start := time.Now()
	var parsed sql.Stmt
	dParse := t.time(req, "sql.parse", func() { parsed, err = sql.ParseStatement(src) })
	if err != nil {
		return 0, 0, err
	}
	dBind := t.time(req, "sql.bind", func() { _, err = sql.AnalyzeStatement(parsed, cat) })
	if err != nil {
		return 0, 0, err
	}
	var res *nra.Result
	prev := db.LastTrace()
	engineStart := time.Since(t.origin)
	t.time(req, "engine", func() { res, err = db.QueryWith(src, nra.Auto.WithTracing(true)) })
	if err != nil {
		return 0, 0, err
	}
	tr := db.LastTrace()
	if tr == prev || tr.Root() == nil {
		return 0, 0, fmt.Errorf("no engine trace recorded for %q", src)
	}
	root := tr.Root()
	dSort := t.time(req, "result.sort", res.Sort)
	var rows [][]any
	dRows := t.time(req, "result.rows", func() { rows = res.Rows() })
	dEnc := t.time(req, "service.encode", func() {
		_, err = json.Marshal(service.Response{OK: true, Columns: res.Columns(), Rows: rows})
	})
	if err != nil {
		return 0, 0, err
	}
	wall = time.Since(start)

	t.add("sql.parse_us", float64(dParse)/float64(time.Microsecond))
	t.add("sql.bind_us", float64(dBind)/float64(time.Microsecond))
	t.add("result.sort_ms", ms(dSort))
	t.add("result.rows_ms", ms(dRows))
	t.add("service.encode_ms", ms(dEnc))
	self := map[string]time.Duration{}
	var batched, opTotal time.Duration
	var rowsIn, spill int64
	root.Walk(func(s *obsv.SpanRecord) {
		d := s.Elapsed
		for _, c := range s.Children {
			d -= c.Elapsed
		}
		d = max(d, 0)
		if name, ok := engineKinds[s.Kind]; ok {
			self[name] += d
			// The query root and the planner-level spans are not operators.
			if s.Kind != obsv.KindQuery && s.Kind != obsv.KindPlan {
				opTotal += d
				if s.Batches > 0 {
					batched += d
				}
				rowsIn += s.RowsIn
			}
		}
		spill += s.SpillBytes
		t.spans = append(t.spans, span{Req: req, Layer: "engine." + s.Kind, Start: engineStart + s.Start, Dur: s.Elapsed})
	})
	for _, name := range engineMetrics {
		t.add(name, ms(self[name]))
	}
	t.add("exec.rows_in_per_row_out", float64(rowsIn)/float64(max(1, res.NumRows())))
	share := 0.0
	if opTotal > 0 {
		share = float64(batched) / float64(opTotal)
	}
	t.add("exec.batch_share", share)
	t.add("exec.spill_bytes", float64(spill))
	return wall, dParse + dBind + root.Elapsed + dSort + dRows, nil
}

// untracedRead is the same request with no spans and tracing off, for
// the tracing overhead.
func untracedRead(db *nra.DB, src string) (time.Duration, error) {
	start := time.Now()
	res, err := db.QueryWith(src, nra.Auto)
	if err != nil {
		return 0, err
	}
	res.Sort()
	rows := res.Rows()
	if _, err := json.Marshal(service.Response{OK: true, Columns: res.Columns(), Rows: rows}); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// replayOrder returns the run's statements in the order they were sent.
func replayOrder(rec *record) []sample {
	all := append(append([]sample(nil), rec.warm...), rec.samples...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	return all
}

// serverElapsed returns the median server-side elapsed_us per statement
// key over the measured window.
func serverElapsed(rec *record, key func(sample) string) map[string]float64 {
	per := map[string][]float64{}
	for _, s := range rec.samples {
		var r wireResponse
		if s.err == nil && json.Unmarshal(s.resp, &r) == nil && r.OK {
			per[key(s)] = append(per[key(s)], float64(r.ElapsedUS))
		}
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = median(v)
	}
	return out
}

// replayStats holds the replay's sums and per-request wall times.
type replayStats struct {
	traced, untraced []float64     // per read request wall, ms
	covered, server  time.Duration // layer time vs server elapsed_us
	userBytes        int
	walGrowth        int64
}

func (t *tracer) metrics(rs replayStats) map[string]metric {
	units := map[string]string{
		"sql.parse_us": "us", "sql.bind_us": "us",
		"service.encode_ms": "ms", "result.sort_ms": "ms", "result.rows_ms": "ms",
		"core.plan_ms": "ms", "core.finish_ms": "ms",
		"exec.scan_ms": "ms", "exec.join_ms": "ms", "exec.nestlink_ms": "ms", "exec.sort_ms": "ms",
		"exec.rows_in_per_row_out": "ratio", "exec.batch_share": "ratio", "exec.spill_bytes": "B",
		"dml.insert_ms": "ms", "dml.update_ms": "ms", "dml.delete_ms": "ms",
		"csvio.load_ms": "ms", "stats.analyze_ms": "ms",
	}
	out := map[string]metric{}
	for name, unit := range units {
		out[name] = metric{median(t.vals[name]), unit} // 0 when the workload has no such call
	}
	wal := 0.0
	if rs.userBytes > 0 {
		wal = float64(rs.walGrowth) / float64(rs.userBytes)
	}
	out["wal.bytes_per_user_byte"] = metric{wal, "ratio"}
	cov := 0.0
	if rs.server > 0 {
		cov = float64(rs.covered) / float64(rs.server)
	}
	out["trace.coverage"] = metric{cov, "ratio"}
	over := 0.0
	if u := median(rs.untraced); u > 0 {
		over = median(rs.traced)/u - 1
	}
	out["trace.overhead_ratio"] = metric{over, "ratio"}
	return out
}

// replayer re-sends a run's statements in-process against a durable
// database opened from the same segment directory.
type replayer struct {
	t       *tracer
	db      *nra.DB
	cat     *catalog.Catalog
	rs      replayStats
	elapsed map[string]float64 // median server elapsed_us per statement key
}

// replay re-sends rec's statements in the order they were sent, for at
// most half of the measured window, calling do for each, and returns
// the per-layer metrics. key names a sample's statement for matching
// server-side elapsed times.
func replay(pristine, tmp string, rec *record, seconds int, key func(sample) string, do func(r *replayer, i int, s sample) error) (map[string]metric, error) {
	t := newTracer()
	db, dir, cat, err := replayDB(t, pristine, tmp)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	r := &replayer{t: t, db: db, cat: cat, elapsed: serverElapsed(rec, key)}
	before, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second / 2)
	for i, s := range replayOrder(rec) {
		if i >= 2 && time.Now().After(deadline) {
			break
		}
		if err := do(r, i, s); err != nil {
			return nil, err
		}
	}
	after, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	r.rs.walGrowth = after - before
	return t.metrics(r.rs), t.write(filepath.Join(filepath.Dir(tmp), "trace-spans.jsonl"))
}

// cover adds a replayed request's layer time and the server's elapsed
// time for the same statement to the coverage sums.
func (r *replayer) cover(key string, d time.Duration) {
	if us, ok := r.elapsed[key]; ok {
		r.rs.covered += d
		r.rs.server += time.Duration(us * float64(time.Microsecond))
	}
}

// read replays one query traced and untraced, alternating which runs
// first so neither always finds the caches warm.
func (r *replayer) read(i int, src string) error {
	var tw, cov, uw time.Duration
	var err error
	if i%2 == 0 {
		if uw, err = untracedRead(r.db, src); err == nil {
			tw, cov, err = tracedRead(r.t, r.db, r.cat, i, src)
		}
	} else {
		if tw, cov, err = tracedRead(r.t, r.db, r.cat, i, src); err == nil {
			uw, err = untracedRead(r.db, src)
		}
	}
	if err != nil {
		return err
	}
	r.rs.traced = append(r.rs.traced, ms(tw))
	r.rs.untraced = append(r.rs.untraced, ms(uw))
	r.cover(src, cov)
	return nil
}

func (w *readWorkload) replay(pristine, tmp string, rec *record, seconds int) (map[string]metric, error) {
	return replay(pristine, tmp, rec, seconds,
		func(s sample) string { return w.stmts[s.stmt] },
		func(r *replayer, i int, s sample) error { return r.read(i, w.stmts[s.stmt]) })
}

func (w *writeMix) replay(pristine, tmp string, rec *record, seconds int) (map[string]metric, error) {
	key := func(s sample) string {
		if s.write {
			return "w" + w.writes[s.stmt].kind
		}
		return w.readSQL[s.stmt]
	}
	nextWrite := 0 // writes replay in the order they were sent so their keys stay valid
	return replay(pristine, tmp, rec, seconds, key, func(r *replayer, i int, s sample) error {
		if !s.write {
			return r.read(i, w.readSQL[s.stmt])
		}
		if s.stmt != nextWrite {
			return nil
		}
		nextWrite++
		op := w.writes[s.stmt]
		var n int
		var err error
		d := r.t.time(i, "dml."+op.kind, func() { n, err = r.db.Exec(op.sql) })
		if err == nil && n != 1 {
			err = fmt.Errorf("%q affected %d rows, want 1", op.sql, n)
		}
		if err != nil {
			return err
		}
		r.t.add("dml."+op.kind+"_ms", ms(d))
		r.rs.userBytes += op.userBytes
		r.cover(key(s), d)
		return nil
	})
}

// serverLayers adds the per-layer metrics read from the server and the
// client during the untraced run: plan-cache and admission counters and
// the service's share of the client latency.
func serverLayers(m map[string]metric, rec *record, st serverStats) {
	pc := st.PlanCache
	lookups := float64(pc.Hits + pc.Misses + pc.Invalidations)
	hit := 0.0
	if lookups > 0 {
		hit = float64(pc.Hits) / lookups
	}
	stmts := float64(max(1, st.Admitted))
	m["plancache.hit_ratio"] = metric{hit, "ratio"}
	m["plancache.evictions_per_1k"] = metric{float64(pc.Evictions) * 1000 / stmts, "per_1k"}
	m["plancache.invalidations_per_1k"] = metric{float64(pc.Invalidations) * 1000 / stmts, "per_1k"}
	var overhead, sizes []float64
	for _, s := range rec.samples {
		var r wireResponse
		if s.err != nil || json.Unmarshal(s.resp, &r) != nil || !r.OK {
			continue
		}
		overhead = append(overhead, ms(s.dur)-float64(r.ElapsedUS)/1000)
		if !s.write {
			sizes = append(sizes, float64(len(s.resp)))
		}
	}
	m["service.overhead_ms"] = metric{median(overhead), "ms"}
	m["service.resp_bytes"] = metric{median(sizes), "B"}
	m["service.queued_ratio"] = metric{rec.queued, "ratio"}

}
