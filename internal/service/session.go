package service

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nra"
)

// Session is one client's state on the server: per-session execution
// defaults, named prepared statements, an optional pinned snapshot, and
// the monotonic query counter that tags this session's statements in
// traces and the slow-query log. A Session is safe for concurrent use
// (the line protocol serialises naturally; HTTP clients may share one).
type Session struct {
	srv *Server
	id  string

	qid atomic.Uint64 // per-session statement counter

	mu       sync.Mutex
	opts     sessionOpts
	prepared map[string]*nra.Stmt
	pinned   *nra.Snap
	closed   bool
}

// sessionOpts are the per-session execution defaults, applied to every
// statement the session runs.
type sessionOpts struct {
	strategy   string // name in strategyNames; "" = auto
	timeout    time.Duration
	twoVL      bool
	vectorized bool
}

// strategyNames maps wire names onto strategies; it mirrors the nraql
// shell so remote \strategy accepts the same vocabulary.
var strategyNames = map[string]nra.Strategy{
	"auto":             nra.Auto,
	"nested-optimized": nra.NestedOptimized,
	"nested-original":  nra.NestedOriginal,
	"native":           nra.Native,
	"reference":        nra.Reference,
}

// ID returns the session's server-assigned identifier.
func (s *Session) ID() string { return s.id }

// nextQueryID advances the session's statement counter.
func (s *Session) nextQueryID() uint64 { return s.qid.Add(1) }

// set changes one session default. Supported keys: strategy, timeout
// (Go duration, 0 = none), 2vl (on/off), vectorized (on/off).
func (s *Session) set(key, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch strings.ToLower(strings.TrimSpace(key)) {
	case "strategy":
		if _, ok := strategyNames[value]; !ok {
			return sessionErrorf("unknown strategy %q", value)
		}
		s.opts.strategy = value
	case "timeout":
		d, err := time.ParseDuration(value)
		if err != nil || d < 0 {
			return sessionErrorf("invalid timeout %q (want a Go duration, e.g. 30s)", value)
		}
		s.opts.timeout = d
	case "2vl":
		on, err := parseOnOff(value)
		if err != nil {
			return err
		}
		s.opts.twoVL = on
	case "vectorized", "vec":
		on, err := parseOnOff(value)
		if err != nil {
			return err
		}
		s.opts.vectorized = on
	default:
		return sessionErrorf("unknown option %q (try strategy, timeout, 2vl, vectorized)", key)
	}
	return nil
}

// parseOnOff parses a boolean session-option value.
func parseOnOff(v string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	}
	return false, sessionErrorf("invalid value %q (want on or off)", v)
}

// strategy builds the statement's strategy from the session defaults
// plus the server-wide wiring: working state is charged to the shared
// memory pool, and the statement is tagged with the session and query
// IDs.
func (s *Session) strategy(qid uint64) nra.Strategy {
	s.mu.Lock()
	o := s.opts
	s.mu.Unlock()

	base := nra.Auto
	if o.strategy != "" {
		base = strategyNames[o.strategy]
	}
	if o.timeout > 0 {
		base = base.WithTimeout(o.timeout)
	}
	if o.twoVL {
		base = base.WithTwoValuedLogic(true)
	}
	if o.vectorized {
		base = base.WithVectorized(true)
	}
	base = base.WithMemoryPool(s.srv.pool)
	return base.WithQueryTag(s.id, qid)
}

// pin pins the session to the current snapshot and returns its epoch.
func (s *Session) pin() uint64 {
	snap := s.srv.db.Snapshot()
	s.mu.Lock()
	s.pinned = snap
	s.mu.Unlock()
	return snap.Epoch()
}

// unpin releases a pinned snapshot.
func (s *Session) unpin() {
	s.mu.Lock()
	s.pinned = nil
	s.mu.Unlock()
}

// snap returns the session's pinned snapshot, nil when unpinned.
func (s *Session) snap() *nra.Snap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pinned
}

// prepare analyzes src under the given name, replacing any previous
// statement of that name.
func (s *Session) prepare(name, src string) error {
	if name == "" {
		return sessionErrorf("prepare needs a statement name")
	}
	st, err := s.srv.db.Prepare(src)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.prepared == nil {
		s.prepared = make(map[string]*nra.Stmt)
	}
	s.prepared[name] = st
	s.mu.Unlock()
	return nil
}

// stmt resolves a prepared statement by name.
func (s *Session) stmt(name string) (*nra.Stmt, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.prepared[name]
	if !ok {
		return nil, sessionErrorf("no prepared statement %q", name)
	}
	return st, nil
}

// closeStmt discards a prepared statement.
func (s *Session) closeStmt(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.prepared[name]; !ok {
		return sessionErrorf("no prepared statement %q", name)
	}
	delete(s.prepared, name)
	return nil
}

// describe renders the session defaults for \stats-style introspection.
func (s *Session) describe() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	strat := s.opts.strategy
	if strat == "" {
		strat = "auto"
	}
	pin := "latest"
	if s.pinned != nil {
		pin = fmt.Sprintf("epoch %d", s.pinned.Epoch())
	}
	return fmt.Sprintf(
		"session %s: strategy=%s timeout=%s 2vl=%v vectorized=%v snapshot=%s prepared=%d",
		s.id, strat, s.opts.timeout, s.opts.twoVL, s.opts.vectorized, pin, len(s.prepared))
}
