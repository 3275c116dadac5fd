package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nra"
	"nra/internal/exec"
	"nra/internal/obsv"
)

// testDB builds a small parent/child database with correlated-subquery
// shapes.
func testDB(t testing.TB) *nra.DB {
	t.Helper()
	db := nra.Open()
	parents := make([][]any, 0, 60)
	for i := 0; i < 60; i++ {
		parents = append(parents, []any{i, i % 7, i % 5})
	}
	children := make([][]any, 0, 240)
	for i := 0; i < 240; i++ {
		children = append(children, []any{i, i % 60, i % 9, i % 5})
	}
	db.MustCreateTable("parent", []string{"id", "v", "g"}, "id", parents...)
	db.MustCreateTable("child", []string{"cid", "pid", "w", "h"}, "cid", children...)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

const corrQuery = "select parent.id, parent.v from parent where exists (select * from child where child.pid = parent.id and child.w > parent.v)"

func TestAdmissionGate(t *testing.T) {
	a := newAdmission(1, 1, 50*time.Millisecond)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue and times out; a second is rejected
	// immediately while the first still occupies the queue slot.
	queued := make(chan error, 1)
	go func() {
		_, err := a.acquire(context.Background())
		queued <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter enqueue
	if _, err := a.acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full acquire: %v, want ErrOverloaded", err)
	}
	if err := <-queued; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued acquire: %v, want ErrQueueTimeout", err)
	}
	if got := a.rejected.Load(); got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
	release()

	// After release the gate admits again.
	release2, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release2()

	// A queued waiter whose context ends first is rejected with its
	// context error.
	release3, _ := a.acquire(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := a.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: %v, want context.Canceled", err)
	}
	release3()
}

func TestWireErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		kind string
		op   string
	}{
		{&exec.QueryError{Op: "hashjoin/build", Err: errors.New("boom")}, KindExec, "hashjoin/build"},
		{&exec.QueryError{Op: "scan", Err: context.Canceled}, KindCancelled, "scan"},
		{&exec.QueryError{Op: "sort", Err: context.DeadlineExceeded}, KindTimeout, "sort"},
		{context.Canceled, KindCancelled, ""},
		{context.DeadlineExceeded, KindTimeout, ""},
		{ErrOverloaded, KindAdmission, ""},
		{ErrQueueTimeout, KindAdmission, ""},
		{ErrDraining, KindDraining, ""},
		{sessionErrorf("no such thing"), KindSession, ""},
		{errors.New("plain failure"), KindQuery, ""},
	}
	for _, c := range cases {
		w := toWireError(c.err)
		if w.Kind != c.kind || w.Op != c.op {
			t.Errorf("toWireError(%v) = kind %q op %q, want %q %q", c.err, w.Kind, w.Op, c.kind, c.op)
		}
	}
	if toWireError(nil) != nil {
		t.Error("toWireError(nil) != nil")
	}
}

func TestServerDo(t *testing.T) {
	db := testDB(t)
	srv := New(Config{DB: db, Registry: obsv.NewRegistry()})
	sess := srv.OpenSession()
	ctx := context.Background()

	hello := srv.Do(ctx, sess, Request{Op: OpHello})
	if !hello.OK || hello.Session != sess.ID() {
		t.Fatalf("hello: %+v", hello)
	}

	q := srv.Do(ctx, sess, Request{Op: OpQuery, SQL: corrQuery})
	if !q.OK || len(q.Columns) != 2 || len(q.Rows) == 0 || q.QueryID == 0 {
		t.Fatalf("query: %+v", q)
	}

	// DML bumps the epoch; the response reports the new one.
	ex := srv.Do(ctx, sess, Request{Op: OpExec, SQL: "insert into parent values (1000, 3, 1)"})
	if !ex.OK || ex.RowsAffected != 1 || ex.Epoch <= q.Epoch {
		t.Fatalf("exec: %+v", ex)
	}

	// Prepared statements: prepare, run, close, run-after-close fails.
	if r := srv.Do(ctx, sess, Request{Op: OpPrepare, Name: "p1", SQL: corrQuery}); !r.OK {
		t.Fatalf("prepare: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpRun, Name: "p1"}); !r.OK || len(r.Rows) == 0 {
		t.Fatalf("run: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpCloseStmt, Name: "p1"}); !r.OK {
		t.Fatalf("close_stmt: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpRun, Name: "p1"}); r.OK || r.Error.Kind != KindSession {
		t.Fatalf("run after close: %+v", r)
	}

	// Session options: valid set reflected in describe, bad ones rejected.
	if r := srv.Do(ctx, sess, Request{Op: OpSet, Key: "strategy", Value: "nested-original"}); !r.OK || !strings.Contains(r.Text, "nested-original") {
		t.Fatalf("set strategy: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpSet, Key: "strategy", Value: "bogus"}); r.OK || r.Error.Kind != KindSession {
		t.Fatalf("set bogus strategy: %+v", r)
	}
	for _, kv := range [][2]string{{"2vl", "on"}, {"vectorized", "off"}, {"timeout", "30s"}} {
		if r := srv.Do(ctx, sess, Request{Op: OpSet, Key: kv[0], Value: kv[1]}); !r.OK {
			t.Fatalf("set %s: %+v", kv[0], r)
		}
	}

	// Pin: reads repeat at the pinned epoch while the table moves on.
	pin := srv.Do(ctx, sess, Request{Op: OpPin})
	before := srv.Do(ctx, sess, Request{Op: OpQuery, SQL: "select id from parent where id >= 1000"})
	srv.Do(ctx, sess, Request{Op: OpExec, SQL: "insert into parent values (1001, 4, 2)"})
	after := srv.Do(ctx, sess, Request{Op: OpQuery, SQL: "select id from parent where id >= 1000"})
	if !pin.OK || len(before.Rows) != 1 || len(after.Rows) != 1 || after.Epoch != pin.Epoch {
		t.Fatalf("pinned reads moved: pin %+v before %d after %d rows", pin, len(before.Rows), len(after.Rows))
	}
	unpin := srv.Do(ctx, sess, Request{Op: OpUnpin})
	latest := srv.Do(ctx, sess, Request{Op: OpQuery, SQL: "select id from parent where id >= 1000"})
	if !unpin.OK || len(latest.Rows) != 2 {
		t.Fatalf("unpinned read: %+v (%d rows)", unpin, len(latest.Rows))
	}

	// Introspection ops.
	if r := srv.Do(ctx, sess, Request{Op: OpTables}); !r.OK || len(r.Tables) != 2 {
		t.Fatalf("tables: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpStats, Table: "parent"}); !r.OK || r.Text == "" {
		t.Fatalf("stats table: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpStats}); !r.OK || !strings.Contains(r.Text, "plan cache") {
		t.Fatalf("server stats: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpExplain, SQL: corrQuery}); !r.OK || r.Text == "" {
		t.Fatalf("explain: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpExplainAnalyze, SQL: corrQuery}); !r.OK || r.Text == "" {
		t.Fatalf("explain analyze: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpWaterfall, SQL: corrQuery}); !r.OK || r.Text == "" {
		t.Fatalf("waterfall: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpAnalyze}); !r.OK {
		t.Fatalf("analyze: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: "nonsense"}); r.OK || r.Error.Kind != KindSession {
		t.Fatalf("unknown op: %+v", r)
	}
}

// TestAutoFallbackThroughService sends a query the nested planner
// cannot decompose (a subquery under OR) through the service. Auto must
// keep its Reference fallback although the session wires a memory pool
// and a query tag into the strategy, and return DB.Query's rows.
func TestAutoFallbackThroughService(t *testing.T) {
	db := testDB(t)
	srv := New(Config{DB: db, MemPoolBytes: 1 << 20})
	sess := srv.OpenSession()
	const src = "select parent.id from parent where parent.v = 1 or exists (select * from child where child.pid = parent.id and child.w > 7)"
	want, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	want.Sort()
	r := srv.Do(context.Background(), sess, Request{Op: OpQuery, SQL: src})
	if !r.OK {
		t.Fatalf("query: %+v", r.Error)
	}
	if len(r.Rows) == 0 || !sameRows(r.Rows, want.Rows()) {
		t.Fatalf("service returned %d rows, DB.Query %d (or they differ)", len(r.Rows), want.NumRows())
	}
}

func TestQueryTimeoutKind(t *testing.T) {
	db := testDB(t)
	srv := New(Config{DB: db})
	sess := srv.OpenSession()
	ctx := context.Background()
	if r := srv.Do(ctx, sess, Request{Op: OpSet, Key: "timeout", Value: "1ns"}); !r.OK {
		t.Fatalf("set timeout: %+v", r)
	}
	r := srv.Do(ctx, sess, Request{Op: OpQuery, SQL: corrQuery})
	if r.OK || r.Error.Kind != KindTimeout {
		t.Fatalf("timed-out query: %+v", r)
	}
}

func TestHTTPAPI(t *testing.T) {
	db := testDB(t)
	srv := New(Config{DB: db})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body any) Response {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
		return out
	}

	if r := post("/v1/query", map[string]any{"sql": corrQuery}); !r.OK || len(r.Rows) == 0 {
		t.Fatalf("/v1/query: %+v", r)
	}
	if r := post("/v1/exec", map[string]any{"sql": "insert into parent values (2000, 1, 1)"}); !r.OK || r.RowsAffected != 1 {
		t.Fatalf("/v1/exec: %+v", r)
	}

	// A named session persists options across requests.
	hello := post("/v1/session", map[string]any{})
	if !hello.OK || hello.Session == "" {
		t.Fatalf("/v1/session hello: %+v", hello)
	}
	if r := post("/v1/session", map[string]any{"op": OpSet, "session": hello.Session, "key": "strategy", "value": "native"}); !r.OK {
		t.Fatalf("/v1/session set: %+v", r)
	}
	if r := post("/v1/prepare", map[string]any{"session": hello.Session, "name": "q", "sql": corrQuery}); !r.OK {
		t.Fatalf("/v1/prepare: %+v", r)
	}
	if r := post("/v1/run", map[string]any{"session": hello.Session, "name": "q"}); !r.OK || len(r.Rows) == 0 {
		t.Fatalf("/v1/run: %+v", r)
	}
	if r := post("/v1/run", map[string]any{"session": "s999x", "name": "q"}); r.OK || r.Error.Kind != KindSession {
		t.Fatalf("/v1/run bad session: %+v", r)
	}
	if r := post("/v1/explain", map[string]any{"sql": corrQuery}); !r.OK || r.Text == "" {
		t.Fatalf("/v1/explain: %+v", r)
	}
	if r := post("/v1/analyze", map[string]any{"table": "parent"}); !r.OK {
		t.Fatalf("/v1/analyze: %+v", r)
	}

	// Streaming: header line, row lines, done trailer.
	data, _ := json.Marshal(map[string]any{"sql": "select id from parent where id < 3", "stream": true})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 3 rows + trailer
		t.Fatalf("stream lines: %q", lines)
	}
	var hdr streamHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || len(hdr.Columns) != 1 {
		t.Fatalf("stream header %q: %v", lines[0], err)
	}
	var tr streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil || !tr.Done || tr.Rows != 3 {
		t.Fatalf("stream trailer %q: %v", lines[len(lines)-1], err)
	}

	// GET endpoints.
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp, b.String()
	}
	if resp, body := get("/v1/tables"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "parent") {
		t.Fatalf("/v1/tables: %d %q", resp.StatusCode, body)
	}
	if resp, body := get("/v1/stats"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "PlanCache") {
		t.Fatalf("/v1/stats: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	// Transport errors: bad JSON is 400.
	badResp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status: %d", badResp.StatusCode)
	}
}

func TestLineProtocol(t *testing.T) {
	db := testDB(t)
	srv := New(Config{DB: db})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeLine(ln)
	defer ln.Close()

	c, err := DialLine(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Session() == "" {
		t.Fatal("no session from hello")
	}
	if r, err := c.Do(Request{Op: OpQuery, SQL: corrQuery}); err != nil || len(r.Rows) == 0 {
		t.Fatalf("query: %+v %v", r, err)
	}
	if r, err := c.Do(Request{Op: OpSet, Key: "2vl", Value: "on"}); err != nil || !strings.Contains(r.Text, "2vl=true") {
		t.Fatalf("set: %+v %v", r, err)
	}
	if _, err := c.Do(Request{Op: OpPrepare, Name: "p", SQL: corrQuery}); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if r, err := c.Do(Request{Op: OpRun, Name: "p"}); err != nil || len(r.Rows) == 0 {
		t.Fatalf("run: %+v %v", r, err)
	}
	if _, err := c.Do(Request{Op: OpQuery, SQL: "select nonsense from nowhere"}); err == nil {
		t.Fatal("bad query did not error")
	} else {
		var we *WireError
		if !errors.As(err, &we) || we.Kind != KindQuery {
			t.Fatalf("bad query error: %v", err)
		}
	}
	// A second client gets its own session.
	c2, err := DialLine(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Session() == c.Session() {
		t.Fatal("sessions not distinct")
	}
}

// TestLineClientLargeResponse round-trips a result far over the 1 MiB
// request bound through ServeLine and DialLine: requests are bounded,
// responses are not.
func TestLineClientLargeResponse(t *testing.T) {
	db := nra.Open()
	rows := make([][]any, 12000)
	for i := range rows {
		rows[i] = []any{i, fmt.Sprintf("%0128d", i)}
	}
	db.MustCreateTable("big", []string{"id", "pad"}, "id", rows...)
	srv := New(Config{DB: db})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeLine(ln)
	defer ln.Close()

	c, err := DialLine(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Do(Request{Op: OpQuery, SQL: "select big.id, big.pad from big"})
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := json.Marshal(r); len(data) <= maxLine {
		t.Fatalf("response is %d bytes, want over %d", len(data), maxLine)
	}
	if len(r.Rows) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(rows))
	}
	// The connection stays usable after the large response.
	if r, err := c.Do(Request{Op: OpQuery, SQL: "select big.id from big where big.id < 3"}); err != nil || len(r.Rows) != 3 {
		t.Fatalf("follow-up query: %+v %v", r, err)
	}
}

// TestHTTPBodyLimit sends a request body over maxLine: the server must
// answer with a 4xx JSON WireError and keep serving.
func TestHTTPBodyLimit(t *testing.T) {
	srv := New(Config{DB: testDB(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	huge := `{"sql": "select parent.id from parent -- ` + strings.Repeat("x", maxLine) + `"}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	var out Response
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("oversized body: response is not JSON: %v", err)
	}
	if resp.StatusCode < 400 || resp.StatusCode >= 500 || out.OK || out.Error == nil {
		t.Fatalf("oversized body: status %d, response %+v; want a 4xx WireError", resp.StatusCode, out)
	}

	resp, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"sql": "select parent.id from parent where parent.id < 3"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || !out.OK || len(out.Rows) != 3 {
		t.Fatalf("server not serving after an oversized body: %+v %v", out, err)
	}
}

func TestDrain(t *testing.T) {
	db := testDB(t)
	srv := New(Config{DB: db, DrainGrace: time.Millisecond})
	sess := srv.OpenSession()
	ctx := context.Background()

	// Launch statements that may still be in flight when drain starts.
	done := make(chan Response, 4)
	for i := 0; i < 4; i++ {
		go func() {
			done <- srv.Do(ctx, sess, Request{Op: OpQuery, SQL: corrQuery})
		}()
	}
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every in-flight statement resolved: finished, cancelled, or
	// rejected — never hung.
	for i := 0; i < 4; i++ {
		r := <-done
		if !r.OK && r.Error.Kind != KindCancelled && r.Error.Kind != KindDraining {
			t.Fatalf("in-flight statement during drain: %+v", r)
		}
	}
	// New statements are rejected while control ops still answer.
	if r := srv.Do(ctx, sess, Request{Op: OpQuery, SQL: corrQuery}); r.OK || r.Error.Kind != KindDraining {
		t.Fatalf("post-drain query: %+v", r)
	}
	if r := srv.Do(ctx, sess, Request{Op: OpPing}); !r.OK {
		t.Fatalf("post-drain ping: %+v", r)
	}
}

func TestQPSSweepSmoke(t *testing.T) {
	db := testDB(t)
	pts, err := RunQPS(db, QPSConfig{
		Queries:     []string{corrQuery, "select id from parent where v > 3"},
		Concurrency: []int{1, 2},
		PerWorker:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 { // {on, off} × {1, 2}
		t.Fatalf("points: %d", len(pts))
	}
	for _, p := range pts {
		if p.Queries == 0 || p.QPS <= 0 || p.P50 <= 0 || p.P99 < p.P50 {
			t.Fatalf("degenerate point: %+v", p)
		}
	}
}
