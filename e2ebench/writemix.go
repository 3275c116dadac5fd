package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"nra"
	"nra/internal/catalog"
	"nra/internal/service"
	"nra/internal/value"
)

// writeMixHot is how many customers the writer and the reader share, so
// reads keep landing on rows the writer has just changed.
const writeMixHot = 100

// writeMixReads are the reader's correlated reads over one customer's
// orders and line items. Each result depends only on that customer's
// rows, which is what lets verify compute it on a copy holding just them.
var writeMixReads = []string{
	`select o_orderkey, o_totalprice from orders where o_custkey = %d and o_totalprice > all (select l_extendedprice from lineitem where l_orderkey = o_orderkey and l_quantity >= 25)`,
	`select c_custkey, c_name from customer where c_custkey = %d and exists (select * from orders where o_custkey = c_custkey and exists (select * from lineitem where l_orderkey = o_orderkey and l_shipmode = 'MAIL'))`,
	`select o_orderkey, o_orderdate from orders where o_custkey = %d and not exists (select * from lineitem where l_orderkey = o_orderkey and l_discount > 0.05)`,
	`select o_orderkey, o_orderstatus from orders where o_custkey = %d and o_orderkey in (select l_orderkey from lineitem where l_orderkey = o_orderkey and l_returnflag = 'N')`,
}

// tableRows is the benchmark's own model of one table's rows, keyed by
// primary key.
type tableRows struct {
	cols []string
	pk   string
	rows map[int64][]any
}

func (t *tableRows) sorted() [][]any {
	keys := make([]int64, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([][]any, len(keys))
	for i, k := range keys {
		out[i] = t.rows[k]
	}
	return out
}

// custModel holds one hot customer's rows.
type custModel struct {
	customer, orders, lineitem *tableRows
	version                    int // writes applied so far
}

// writeOp is one DML statement with its effect on the model.
type writeOp struct {
	sql       string
	kind      string // insert, update or delete
	cust      int64
	table     string
	key       int64
	row       []any // insert
	col       int   // update: column index
	val       any   // update: new value
	userBytes int   // bytes of values the statement writes
}

func (op writeOp) apply(m *custModel) {
	t := m.orders
	if op.table == "lineitem" {
		t = m.lineitem
	}
	switch op.kind {
	case "insert":
		t.rows[op.key] = op.row
	case "update":
		row := append([]any(nil), t.rows[op.key]...)
		row[op.col] = op.val
		t.rows[op.key] = row
	case "delete":
		delete(t.rows, op.key)
	}
	m.version++
}

type writeMix struct {
	hot       []int64
	base      map[int64]*custModel // the hot customers' rows before any write
	readSQL   []string
	readCust  []int64
	readReqs  [][]byte
	rng       *rand.Rand // the writer's stream
	nextOrder int64
	nextRow   int64
	writes    []writeOp // sent so far, in order
	startEp   uint64
}

func prepareWriteMix(cat *catalog.Catalog, _ string, seed uint64) (workload, error) {
	w := &writeMix{base: map[int64]*custModel{}}
	ct, err := cat.Table("customer")
	if err != nil {
		return nil, err
	}
	ot, err := cat.Table("orders")
	if err != nil {
		return nil, err
	}
	lt, err := cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	newRows := func(t *catalog.Table) *tableRows {
		return &tableRows{cols: t.Rel.Schema.ColNames(), pk: t.PK, rows: map[int64][]any{}}
	}
	// Customers with orders, in key order, then a seeded pick of the hot set.
	custOrders := map[int64][]int64{}
	ocust, okey := ot.Rel.Schema.ColIndex("o_custkey"), ot.Rel.Schema.ColIndex("o_orderkey")
	for _, t := range ot.Rel.Tuples {
		k := t.Atoms[okey].Int64()
		custOrders[t.Atoms[ocust].Int64()] = append(custOrders[t.Atoms[ocust].Int64()], k)
		w.nextOrder = max(w.nextOrder, k+1)
	}
	var cands []int64
	for c := range custOrders {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	w.hot = cands[:min(writeMixHot, len(cands))]
	orderCust := map[int64]int64{}
	for _, c := range w.hot {
		m := &custModel{customer: newRows(ct), orders: newRows(ot), lineitem: newRows(lt)}
		w.base[c] = m
		for _, k := range custOrders[c] {
			orderCust[k] = c
		}
	}
	ckey := ct.Rel.Schema.ColIndex("c_custkey")
	for _, t := range ct.Rel.Tuples {
		if m, ok := w.base[t.Atoms[ckey].Int64()]; ok {
			m.customer.rows[t.Atoms[ckey].Int64()] = goRow(t.Atoms)
		}
	}
	for _, t := range ot.Rel.Tuples {
		if c, ok := orderCust[t.Atoms[okey].Int64()]; ok {
			w.base[c].orders.rows[t.Atoms[okey].Int64()] = goRow(t.Atoms)
		}
	}
	lrow, lorder := lt.Rel.Schema.ColIndex("l_rowid"), lt.Rel.Schema.ColIndex("l_orderkey")
	for _, t := range lt.Rel.Tuples {
		r := t.Atoms[lrow].Int64()
		w.nextRow = max(w.nextRow, r+1)
		if c, ok := orderCust[t.Atoms[lorder].Int64()]; ok {
			w.base[c].lineitem.rows[r] = goRow(t.Atoms)
		}
	}
	for _, c := range w.hot {
		for _, tmpl := range writeMixReads {
			s := fmt.Sprintf(tmpl, c)
			w.readSQL = append(w.readSQL, s)
			w.readCust = append(w.readCust, c)
			w.readReqs = append(w.readReqs, mustJSON(service.Request{Op: service.OpQuery, SQL: s}))
		}
	}
	w.rng = rand.New(rand.NewSource(int64(seed)*7919 + 1))
	return w, nil
}

func (m *custModel) clone() *custModel {
	cp := func(t *tableRows) *tableRows {
		n := &tableRows{cols: t.cols, pk: t.pk, rows: make(map[int64][]any, len(t.rows))}
		for k, r := range t.rows {
			n.rows[k] = r
		}
		return n
	}
	return &custModel{customer: cp(m.customer), orders: cp(m.orders), lineitem: cp(m.lineitem)}
}

// goRow converts catalog values to the Go values CreateTable accepts.
func goRow(vs []value.Value) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		switch v.Kind() {
		case value.KindInt:
			out[i] = v.Int64()
		case value.KindFloat:
			out[i] = v.Float64()
		case value.KindString:
			out[i] = v.Text()
		case value.KindBool:
			out[i] = v.Truth() == value.True
		}
	}
	return out
}

// money returns a price literal with two decimals and its value.
func (w *writeMix) money(lo, hi int) (string, float64) {
	cents := lo*100 + w.rng.Intn((hi-lo)*100)
	lit := fmt.Sprintf("%d.%02d", cents/100, cents%100)
	v, _ := strconv.ParseFloat(lit, 64)
	return lit, v
}

// nextJob appends the writer's next six statements: an order and one
// line item are inserted, both updated, then both deleted, so table
// sizes stay level.
func (w *writeMix) nextJob() {
	c := w.hot[w.rng.Intn(len(w.hot))]
	ok, rid := w.nextOrder, w.nextRow
	w.nextOrder++
	w.nextRow++
	total, totalV := w.money(1000, 400000)
	day := fmt.Sprintf("1996-%02d-%02d", 1+w.rng.Intn(12), 1+w.rng.Intn(28))
	orow := []any{ok, c, "O", totalV, day, "1-URGENT", "Clerk#000000001", int64(0), "e2ebench"}
	w.writes = append(w.writes, writeOp{
		sql:  fmt.Sprintf("insert into orders values (%d, %d, 'O', %s, '%s', '1-URGENT', 'Clerk#000000001', 0, 'e2ebench')", ok, c, total, day),
		kind: "insert", cust: c, table: "orders", key: ok, row: orow,
	})
	qty := int64(1 + w.rng.Intn(50))
	price, priceV := w.money(900, 100000)
	disc := []string{"0.00", "0.04", "0.08"}[w.rng.Intn(3)]
	discV, _ := strconv.ParseFloat(disc, 64)
	flag := []string{"N", "R", "A"}[w.rng.Intn(3)]
	mode := []string{"MAIL", "SHIP", "AIR"}[w.rng.Intn(3)]
	lrow := []any{rid, ok, int64(1 + w.rng.Intn(2000)), int64(1 + w.rng.Intn(100)), int64(1), qty, priceV, discV, 0.02,
		flag, "O", day, day, day, "NONE", mode, "e2ebench"}
	w.writes = append(w.writes, writeOp{
		sql: fmt.Sprintf("insert into lineitem values (%d, %d, %d, %d, 1, %d, %s, %s, 0.02, '%s', 'O', '%s', '%s', '%s', 'NONE', '%s', 'e2ebench')",
			rid, ok, lrow[2], lrow[3], qty, price, disc, flag, day, day, day, mode),
		kind: "insert", cust: c, table: "lineitem", key: rid, row: lrow,
	})
	p2, p2V := w.money(900, 100000)
	w.writes = append(w.writes, writeOp{
		sql:  fmt.Sprintf("update lineitem set l_extendedprice = %s where l_rowid = %d", p2, rid),
		kind: "update", cust: c, table: "lineitem", key: rid, col: 6, val: p2V,
	})
	t2, t2V := w.money(1000, 400000)
	w.writes = append(w.writes, writeOp{
		sql:  fmt.Sprintf("update orders set o_totalprice = %s where o_orderkey = %d", t2, ok),
		kind: "update", cust: c, table: "orders", key: ok, col: 3, val: t2V,
	})
	w.writes = append(w.writes,
		writeOp{sql: fmt.Sprintf("delete from lineitem where l_rowid = %d", rid), kind: "delete", cust: c, table: "lineitem", key: rid},
		writeOp{sql: fmt.Sprintf("delete from orders where o_orderkey = %d", ok), kind: "delete", cust: c, table: "orders", key: ok})
	for i := len(w.writes) - 6; i < len(w.writes); i++ {
		w.writes[i].userBytes = valueBytes(w.writes[i].sql)
	}
}

// valueBytes is the length of a DML statement's value part: the VALUES
// list of an insert, the assignment and key of an update, the key of a
// delete.
func valueBytes(s string) int {
	if _, v, ok := strings.Cut(s, " values "); ok {
		return len(v)
	}
	if _, v, ok := strings.Cut(s, " set "); ok {
		return len(v)
	}
	_, v, _ := strings.Cut(s, " where ")
	return len(v)
}

func (w *writeMix) drive(srv *server, window time.Duration, traced bool) (*record, error) {
	writer, err := dialLine(srv.lineAddr)
	if err != nil {
		return nil, err
	}
	defer writer.close()
	reader, err := dialLine(srv.lineAddr)
	if err != nil {
		return nil, err
	}
	defer reader.close()
	resp, _, err := writer.roundTrip(mustJSON(service.Request{Op: service.OpHello}))
	if err != nil {
		return nil, err
	}
	var hello wireResponse
	if err := json.Unmarshal(resp, &hello); err != nil || !hello.OK {
		return nil, fmt.Errorf("hello: %s", resp)
	}
	w.startEp = hello.Epoch
	pin := mustJSON(service.Request{Op: service.OpPin})
	rrng := rand.New(rand.NewSource(int64(w.rng.Int63())))
	// One closed loop alternates a write on the writer's session and a
	// pinned read on the reader's, so every read sees a fresh version.
	// Running the two concurrently saturated both cores, and the
	// throughput then swung with the host's load from run to run.
	step := func(i int) sample {
		if i%2 == 0 {
			j := i / 2
			if j >= len(w.writes) {
				w.nextJob()
			}
			s := sample{stmt: j, write: true, start: time.Now()}
			s.resp, s.dur, s.err = writer.roundTrip(mustJSON(service.Request{Op: service.OpExec, SQL: w.writes[j].sql}))
			return s
		}
		k := rrng.Intn(len(w.readSQL))
		s := sample{stmt: k}
		presp, _, err := reader.roundTrip(pin)
		var p wireResponse
		if err == nil {
			err = json.Unmarshal(presp, &p)
		}
		if err != nil {
			s.err = err
			return s
		}
		s.epoch = p.Epoch
		s.start = time.Now()
		s.resp, s.dur, s.err = reader.roundTrip(w.readReqs[k])
		return s
	}
	var poll func(<-chan struct{}) float64
	if traced {
		poll = queuedSampler(srv)
	}
	return closedLoop(window, step, poll), nil
}

// verify replays the writes in epoch order on the model and checks each
// read against the naive oracle run over the model's rows of the read's
// customer at the read's pinned epoch.
func (w *writeMix) verify(rec *record) int {
	failed := 0
	fail := func(s *sample) {
		s.failed = true
		failed++
	}
	var writes, reads []*sample
	for _, set := range [][]sample{rec.warm, rec.samples} {
		for i := range set {
			if set[i].write {
				writes = append(writes, &set[i])
			} else {
				reads = append(reads, &set[i])
			}
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].stmt < writes[j].stmt })
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].epoch < reads[j].epoch })

	models := map[int64]*custModel{}
	for c, m := range w.base {
		models[c] = m.clone()
	}
	type refKey struct{ read, version int }
	refs := map[refKey]reference{}
	epoch, wi := w.startEp, 0
	for _, r := range reads {
		for wi < len(writes) && epoch < r.epoch {
			s := writes[wi]
			wi++
			var resp wireResponse
			if s.err != nil || json.Unmarshal(s.resp, &resp) != nil || !resp.OK || resp.RowsAffected != 1 || resp.Epoch != epoch+1 {
				fail(s)
				continue // not committed as expected: the model does not apply it
			}
			op := w.writes[s.stmt]
			op.apply(models[op.cust])
			epoch++
		}
		var resp wireResponse
		if r.err != nil || json.Unmarshal(r.resp, &resp) != nil || resp.Epoch != r.epoch || epoch != r.epoch {
			fail(r)
			continue
		}
		m := models[w.readCust[r.stmt]]
		key := refKey{r.stmt, m.version}
		ref, ok := refs[key]
		if !ok {
			var err error
			if ref, err = m.reference(w.readSQL[r.stmt]); err != nil {
				fail(r)
				continue
			}
			refs[key] = ref
		}
		if !ref.matches(&resp) {
			fail(r)
		}
	}
	for ; wi < len(writes); wi++ {
		s := writes[wi]
		var resp wireResponse
		if s.err != nil || json.Unmarshal(s.resp, &resp) != nil || !resp.OK || resp.RowsAffected != 1 || resp.Epoch != epoch+1 {
			fail(s)
			continue
		}
		epoch++
	}
	return failed
}

// reference evaluates a read with the naive oracle over a database that
// holds only this customer's rows.
func (m *custModel) reference(src string) (reference, error) {
	db := nra.Open()
	for name, t := range map[string]*tableRows{"customer": m.customer, "orders": m.orders, "lineitem": m.lineitem} {
		if err := db.CreateTable(name, t.cols, t.pk, t.sorted()...); err != nil {
			return reference{}, err
		}
	}
	res, err := db.QueryWith(src, nra.Reference)
	if err != nil {
		return reference{}, err
	}
	return newReference(res)
}
