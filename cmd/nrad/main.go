// Command nrad serves the nested relational query engine to concurrent
// clients over one shared database: an HTTP/JSON API and a newline-
// delimited JSON line protocol (the surface nraql -connect speaks),
// with sessions, a shared prepared-plan cache, and pooled admission
// control (max-in-flight gate, bounded queue, shared memory pool).
//
// Usage:
//
//	nrad [-addr localhost:7432] [-line-addr localhost:7433]
//	     [-dir data/] [-storage columnar|csv] [-tpch 0.001] [-seed 42] [-analyze]
//	     [-max-inflight 16] [-queue-depth 64] [-queue-timeout 5s]
//	     [-mem-pool 256M] [-plan-cache 256]
//	     [-debug-addr localhost:6060] [-slow-query 100ms] [-slow-log f]
//	     [-drain-timeout 10s]
//
// -dir opens (or creates) a durable catalog with write-ahead logging;
// -tpch loads an in-memory TPC-H instance instead. On SIGTERM or SIGINT
// the server drains: it stops admitting statements, cancels stragglers
// through their execution contexts, checkpoints the WAL (durable
// catalogs), and exits. See docs/SERVICE.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nra"
	"nra/internal/obsv"
	"nra/internal/service"
)

// HTTP connection limits. A client gets readHeaderTimeout to send a
// request's headers, so a slow or stalled client cannot hold a
// connection open; an idle keep-alive connection is closed after
// idleTimeout. Request bodies are bounded by the service itself.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7432", "HTTP API listen address")
		lineAddr = flag.String("line-addr", "localhost:7433", "line-protocol listen address (empty = off)")
		dir      = flag.String("dir", "", "durable catalog directory (created if missing; WAL-backed)")
		sf       = flag.Float64("tpch", 0, "load an in-memory TPC-H instance at this scale factor")
		seed     = flag.Uint64("seed", 42, "TPC-H generator seed")
		anlz     = flag.Bool("analyze", true, "collect optimizer statistics at startup")
		maxIn    = flag.Int("max-inflight", 0, "max concurrently executing statements (0 = 2x GOMAXPROCS)")
		queueD   = flag.Int("queue-depth", 0, "admission queue depth beyond max-inflight (0 = 4x max-inflight)")
		queueT   = flag.Duration("queue-timeout", 5*time.Second, "max wait in the admission queue before rejection")
		memPool  = flag.String("mem-pool", "", "shared memory pool for operator working state across all statements, e.g. 256M (empty = unbounded)")
		planC    = flag.Int("plan-cache", 256, "shared plan cache capacity in statements (negative = off)")
		storage  = flag.String("storage", "columnar", "on-disk table format for saves/checkpoints: columnar or csv")
		dbg      = flag.String("debug-addr", "", "serve the debug HTTP endpoint (expvar metrics + pprof) on this address (empty = off; bind to localhost)")
		slowQ    = flag.Duration("slow-query", -1, "log queries at least this slow to the slow-query log (0 = every query, negative = off)")
		slowF    = flag.String("slow-log", "", "slow-query log destination file (JSON lines; empty = stderr)")
		drainT   = flag.Duration("drain-timeout", 10*time.Second, "max time to wait for in-flight statements during shutdown")
	)
	flag.Parse()

	db, err := openDB(*dir, *sf, *seed)
	if err != nil {
		fail(err)
	}
	defer db.Close()
	if err := db.SetStorageFormat(*storage); err != nil {
		fail(err)
	}
	if *anlz && len(db.Tables()) > 0 {
		if err := db.Analyze(); err != nil {
			fail(err)
		}
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

	poolBytes := int64(0)
	if *memPool != "" {
		poolBytes, err = parseBytes(*memPool)
		if err != nil {
			fail(err)
		}
	}
	srv := service.New(service.Config{
		DB:            db,
		MaxInFlight:   *maxIn,
		QueueDepth:    *queueD,
		QueueTimeout:  *queueT,
		MemPoolBytes:  poolBytes,
		PlanCacheSize: *planC,
		CheckpointDir: *dir,
		Registry:      obsv.Default(),
	})

	if *dbg != "" {
		dbgAddr, stop, err := obsv.ServeDebug(*dbg, obsv.Default())
		if err != nil {
			fail(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "nrad: debug endpoint http://%s/debug/\n", dbgAddr)
	}

	httpLn, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() {
		if err := httpSrv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}()
	fmt.Fprintf(os.Stderr, "nrad: http api on %s\n", httpLn.Addr())

	var lineLn net.Listener
	if *lineAddr != "" {
		lineLn, err = net.Listen("tcp", *lineAddr)
		if err != nil {
			fail(err)
		}
		go func() {
			if err := srv.ServeLine(lineLn); err != nil {
				fail(err)
			}
		}()
		fmt.Fprintf(os.Stderr, "nrad: line protocol on %s (nraql -connect %s)\n",
			lineLn.Addr(), lineLn.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "nrad: %v — draining\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if lineLn != nil {
		lineLn.Close()
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "nrad: drain:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "nrad: http shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "nrad: stopped")
}

// openDB opens the serving database: a durable WAL-backed catalog when
// -dir is set, an in-memory TPC-H instance when -tpch is set, or an
// empty in-memory database.
func openDB(dir string, sf float64, seed uint64) (*nra.DB, error) {
	switch {
	case dir != "" && sf > 0:
		return nil, errors.New("nrad: -dir and -tpch are mutually exclusive")
	case dir != "":
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// Bootstrap a fresh directory: a durable open needs a committed
		// save to anchor WAL replay.
		if _, err := os.Stat(filepath.Join(dir, "catalog.json")); os.IsNotExist(err) {
			if err := nra.Open().Save(dir); err != nil {
				return nil, err
			}
		}
		return nra.OpenDirDurable(dir)
	case sf > 0:
		cfg := nra.TPCHScale(sf)
		cfg.Seed = seed
		return nra.OpenTPCH(cfg)
	}
	return nra.Open(), nil
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
		return 0, fmt.Errorf("invalid -mem-pool value %q (want e.g. 65536, 64K, 16M, 1G)", orig)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("-mem-pool value %q overflows", orig)
	}
	return n << shift, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nrad:", err)
	os.Exit(1)
}
