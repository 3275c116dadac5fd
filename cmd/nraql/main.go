// Command nraql is an interactive SQL shell over the nested relational
// query engine. It loads a deterministic TPC-H database (or starts empty)
// and executes SELECT statements under a chosen strategy.
//
// Usage:
//
//	nraql [-tpch 0.001] [-strategy nested-optimized] [-mem 64M]
//	      [-timeout 30s] [-2vl] [-vectorized] [-debug-addr localhost:6060]
//	      [-slow-query 100ms] [-e "select ..."]
//	nraql -open data/ [-save data/] [-storage columnar|csv] ...
//	nraql -connect host:port [-e "select ..."]
//
// -open loads a database directory written by -save or nrad -dir;
// -save writes the database out on exit, as binary columnar segments
// by default (-storage csv exports portable CSV; see docs/STORAGE.md).
//
// With -connect the shell speaks the nrad line protocol instead of
// embedding the engine: statements execute in a server-side session,
// and \strategy, \set, \2vl, \vec, \explain, \waterfall, \stats,
// \tables, \pin and \unpin operate on that session remotely (see
// docs/SERVICE.md).
//
// Inside the shell:
//
//	select ...;                 run a query
//	analyze [table];            collect optimizer statistics
//	\strategy <name>            switch strategy (auto | nested-optimized |
//	                            nested-original | native | reference)
//	\explain select ...;        show the plan instead of running
//	\explain analyze select ..; run, then show estimated vs actual rows
//	\waterfall select ...;      run traced, then draw the span waterfall
//	\2vl on|off                 toggle two-valued logic (NULL comparisons
//	                            are FALSE; negative operators antijoin)
//	\vec on|off                 toggle vectorized batch-at-a-time
//	                            execution (identical results; EXPLAIN
//	                            shows [batch]/[row] per operator)
//	\stats <table>              show a table's collected statistics
//	\tables                     list tables with row counts
//	\q                          quit
//
// Ctrl-C cancels the query in flight and returns to the prompt; Ctrl-C
// at the prompt (or pressed twice) exits the shell.
//
// -debug-addr serves expvar metrics and net/http/pprof on a private HTTP
// endpoint; -slow-query/-slow-log write a JSON-lines slow-query log (see
// docs/OBSERVABILITY.md).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nra"
	"nra/internal/obsv"
)

// inflight holds the cancel function of the query currently executing,
// nil when the shell is idle. The SIGINT handler swaps it out: Ctrl-C
// during a query cancels that query and returns to the prompt; Ctrl-C
// at the prompt (or a second Ctrl-C) exits.
var inflight atomic.Pointer[context.CancelFunc]

func installInterrupt() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		for range sigc {
			if cancel := inflight.Swap(nil); cancel != nil {
				(*cancel)()
				fmt.Fprintln(os.Stderr, "\n(query canceled — Ctrl-C again to quit)")
				continue
			}
			fmt.Fprintln(os.Stderr, "\nnraql: interrupted")
			os.Exit(130)
		}
	}()
}

var strategyNames = map[string]nra.Strategy{
	"auto":             nra.Auto,
	"nested-optimized": nra.NestedOptimized,
	"nested-original":  nra.NestedOriginal,
	"native":           nra.Native,
	"reference":        nra.Reference,
}

func main() {
	var (
		sf    = flag.Float64("tpch", 0.001, "load TPC-H at this scale factor (0 = start empty)")
		strat = flag.String("strategy", "auto", "execution strategy")
		eval  = flag.String("e", "", "execute one statement and exit")
		file  = flag.String("f", "", "execute a ';'-separated SQL script and exit")
		seed  = flag.Uint64("seed", 42, "TPC-H generator seed")
		trace = flag.Bool("trace", false, "print the per-operator execution walkthrough")
		mem   = flag.String("mem", "", "memory budget for operator working state, e.g. 64K, 16M, 1G (empty = unbounded); over-budget operators spill to disk")
		tmo   = flag.Duration("timeout", 0, "per-query timeout, e.g. 30s (0 = none)")
		twoVL = flag.Bool("2vl", false, "evaluate under two-valued logic: NULL comparisons are FALSE; NOT IN / NOT EXISTS / ALL unnest to antijoins")
		vect  = flag.Bool("vectorized", false, "execute the hot path batch-at-a-time (identical results; in-memory path only)")
		anlz  = flag.Bool("analyze", true, "collect optimizer statistics on the loaded tables at startup (enables cost-based planning)")
		dbg   = flag.String("debug-addr", "", "serve the debug HTTP endpoint (expvar metrics + pprof) on this address, e.g. localhost:6060 (empty = off; bind to localhost only — see docs/OBSERVABILITY.md)")
		slowQ = flag.Duration("slow-query", -1, "log queries at least this slow to the slow-query log (0 = every query, negative = off)")
		slowF = flag.String("slow-log", "", "slow-query log destination file (JSON lines; empty = stderr)")
		conn  = flag.String("connect", "", "connect to an nrad server's line protocol at host:port instead of embedding the engine")
		open  = flag.String("open", "", "load a database directory written by -save (or nrad -dir) instead of generating TPC-H")
		save  = flag.String("save", "", "save the database to this directory before exiting")
		store = flag.String("storage", "columnar", "on-disk table format for -save: columnar or csv")
	)
	flag.Parse()

	if *conn != "" {
		remoteMain(*conn, *eval)
		return
	}

	strategy, ok := strategyNames[*strat]
	if !ok {
		fail(fmt.Errorf("unknown strategy %q", *strat))
	}
	if *mem != "" {
		bytes, err := parseBytes(*mem)
		if err != nil {
			fail(err)
		}
		strategy = strategy.WithMemoryBudget(bytes)
	}
	if *tmo > 0 {
		strategy = strategy.WithTimeout(*tmo)
	}
	if *twoVL {
		strategy = strategy.WithTwoValuedLogic(true)
	}
	if *vect {
		strategy = strategy.WithVectorized(true)
	}
	if *trace {
		strategy = nra.Traced(strategy, os.Stderr)
	}

	var db *nra.DB
	switch {
	case *open != "":
		var err error
		db, err = nra.OpenDir(*open)
		if err != nil {
			fail(err)
		}
	case *sf > 0:
		cfg := nra.TPCHScale(*sf)
		cfg.Seed = *seed
		var err error
		db, err = nra.OpenTPCH(cfg)
		if err != nil {
			fail(err)
		}
	default:
		db = nra.Open()
	}
	if err := db.SetStorageFormat(*store); err != nil {
		fail(err)
	}
	saveOnExit := func() {
		if *save == "" {
			return
		}
		if err := db.Save(*save); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "saved to %s (%s format)\n", *save, *store)
	}
	if *anlz {
		if err := db.Analyze(); err != nil {
			fail(err)
		}
	}
	if *dbg != "" {
		addr, stop, err := obsv.ServeDebug(*dbg, obsv.Default())
		if err != nil {
			fail(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/debug/\n", addr)
	}
	if *slowQ >= 0 {
		w := os.Stderr
		if *slowF != "" {
			f, err := os.OpenFile(*slowF, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		db.SetSlowQueryLog(w, *slowQ)
	}

	installInterrupt()

	if *eval != "" {
		if err := run(db, strategy, *eval); err != nil {
			fail(err)
		}
		saveOnExit()
		return
	}
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		for _, stmt := range strings.Split(string(data), ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" || strings.HasPrefix(stmt, "--") {
				continue
			}
			if err := run(db, strategy, stmt); err != nil {
				fail(fmt.Errorf("%s: %w", stmt, err))
			}
		}
		saveOnExit()
		return
	}

	fmt.Printf("nraql — nested relational subquery processor (strategy: %s)\n", strategy)
	if *sf > 0 {
		fmt.Printf("TPC-H sf=%g loaded: %s\n", *sf, strings.Join(db.Tables(), ", "))
	}
	fmt.Println(`type SQL ending with ';', or \q to quit`)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("nraql> ")
		} else {
			fmt.Print("  ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			switch {
			case trimmed == `\q` || trimmed == `\quit`:
				saveOnExit()
				return
			case trimmed == `\tables`:
				for _, t := range db.Tables() {
					n, _ := db.NumRows(t)
					fmt.Printf("  %-12s %8d rows\n", t, n)
				}
			case strings.HasPrefix(trimmed, `\strategy`):
				name := strings.TrimSpace(strings.TrimPrefix(trimmed, `\strategy`))
				if s, ok := strategyNames[name]; ok {
					strategy = s
					fmt.Printf("strategy: %s\n", strategy)
				} else {
					fmt.Printf("unknown strategy %q (try: auto, nested-optimized, nested-original, native, reference)\n", name)
				}
			case strings.HasPrefix(trimmed, `\explain`):
				src := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(trimmed, `\explain`)), ";")
				var out string
				var err error
				if rest, ok := cutWord(src, "analyze"); ok {
					out, err = db.ExplainAnalyze(rest, strategy)
				} else {
					out, err = db.Explain(src, strategy)
				}
				if err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Print(out)
				}
			case strings.HasPrefix(trimmed, `\waterfall`):
				src := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(trimmed, `\waterfall`)), ";")
				if src == "" {
					fmt.Println(`usage: \waterfall select ...`)
				} else if _, err := db.QueryWith(src, strategy.WithTracing(true)); err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Print(db.LastTrace().Waterfall())
				}
			case strings.HasPrefix(trimmed, `\2vl`):
				arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\2vl`))
				switch arg {
				case "on":
					strategy = strategy.WithTwoValuedLogic(true)
					fmt.Printf("strategy: %s\n", strategy)
				case "off":
					strategy = strategy.WithTwoValuedLogic(false)
					fmt.Printf("strategy: %s\n", strategy)
				default:
					fmt.Println(`usage: \2vl on|off`)
				}
			case strings.HasPrefix(trimmed, `\vec`):
				arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\vec`))
				switch arg {
				case "on":
					strategy = strategy.WithVectorized(true)
					fmt.Printf("strategy: %s\n", strategy)
				case "off":
					strategy = strategy.WithVectorized(false)
					fmt.Printf("strategy: %s\n", strategy)
				default:
					fmt.Println(`usage: \vec on|off`)
				}
			case strings.HasPrefix(trimmed, `\stats`):
				name := strings.TrimSpace(strings.TrimPrefix(trimmed, `\stats`))
				if name == "" {
					fmt.Println(`usage: \stats <table>`)
				} else if out, err := db.StatsSummary(name); err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Print(out)
				}
			default:
				fmt.Println(`unknown command; try \q, \tables, \strategy, \2vl, \vec, \explain, \waterfall, \stats`)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			src := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			if err := run(db, strategy, src); err != nil {
				fmt.Println("error:", err)
			}
		}
		prompt()
	}
	saveOnExit()
}

// cutWord strips a leading keyword (case-insensitively) from s, reporting
// whether it was present.
func cutWord(s, word string) (string, bool) {
	t := strings.TrimSpace(s)
	if len(t) >= len(word) && strings.EqualFold(t[:len(word)], word) &&
		(len(t) == len(word) || t[len(word)] == ' ' || t[len(word)] == '\t' || t[len(word)] == '\n') {
		return strings.TrimSpace(t[len(word):]), true
	}
	return s, false
}

// run executes one statement. Queries run under a cancelable context
// registered with the SIGINT handler, so Ctrl-C aborts the query —
// not the session.
func run(db *nra.DB, s nra.Strategy, src string) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inflight.Store(&cancel)
	defer inflight.Store(nil)

	start := time.Now()
	lead := strings.ToUpper(strings.Fields(strings.TrimSpace(src) + " x")[0])
	if lead == "ANALYZE" {
		rest := strings.TrimSpace(src[len("analyze"):])
		var err error
		if rest == "" {
			err = db.Analyze()
		} else {
			err = db.Analyze(strings.Fields(rest)...)
		}
		if err != nil {
			return err
		}
		fmt.Printf("(statistics collected, %v)\n", time.Since(start).Round(time.Microsecond))
		return nil
	}
	if lead == "INSERT" || lead == "DELETE" || lead == "UPDATE" || lead == "CREATE" || lead == "DROP" {
		n, err := db.Exec(src)
		if err != nil {
			return err
		}
		fmt.Printf("(%d rows affected, %v)\n", n, time.Since(start).Round(time.Microsecond))
		return nil
	}
	res, err := db.QueryWithContext(ctx, src, s)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	res.Sort()
	fmt.Print(res)
	fmt.Printf("(%d rows, %s, %v)\n", res.NumRows(), s, elapsed.Round(time.Microsecond))
	return nil
}

// parseBytes parses a byte count with an optional K/M/G suffix (powers
// of 1024; lowercase and a trailing "B"/"iB" are accepted).
func parseBytes(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(strings.ToUpper(s))
	s = strings.TrimSuffix(s, "IB")
	s = strings.TrimSuffix(s, "B")
	shift := 0
	switch {
	case strings.HasSuffix(s, "K"):
		shift, s = 10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		shift, s = 20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		shift, s = 30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid -mem value %q (want e.g. 65536, 64K, 16M, 1G)", orig)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("-mem value %q overflows", orig)
	}
	return n << shift, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nraql:", err)
	os.Exit(1)
}
