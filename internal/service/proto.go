// Package service is the concurrent query service over one shared
// durable database: sessions with per-session execution defaults and
// prepared statements, a shared epoch-keyed plan cache, pooled admission
// control (max-in-flight gate, bounded queue, shared memory pool), and
// two wire surfaces — an HTTP/JSON API and a newline-delimited JSON line
// protocol for interactive clients. See docs/SERVICE.md for the
// operational story.
package service

import (
	"context"
	"errors"
	"fmt"

	"nra/internal/exec"
)

// Request is one operation submitted to the service, shared by the HTTP
// API and the line protocol. Op selects the operation; the remaining
// fields parameterise it (unused fields are ignored).
type Request struct {
	// Op is the operation name: one of the Op* constants.
	Op string `json:"op"`
	// SQL is the statement text for query/exec/explain/prepare.
	SQL string `json:"sql,omitempty"`
	// Name identifies a prepared statement for prepare/run/close_stmt.
	Name string `json:"name,omitempty"`
	// Key is the session option for set: strategy, timeout, 2vl or
	// vectorized.
	Key string `json:"key,omitempty"`
	// Value is the new session-option value for set.
	Value string `json:"value,omitempty"`
	// Table names a table for stats, or restricts analyze (empty = all).
	Table string `json:"table,omitempty"`
}

// Operation names accepted in Request.Op.
const (
	// OpHello opens the dialogue: it returns the session ID and the
	// current catalog epoch without executing anything.
	OpHello = "hello"
	// OpPing is a no-op round trip.
	OpPing = "ping"
	// OpQuery executes a SELECT and returns columns and rows.
	OpQuery = "query"
	// OpExec executes DML/DDL (INSERT, DELETE, UPDATE, CREATE, DROP) and
	// returns the affected-row count.
	OpExec = "exec"
	// OpExplain returns the statement's plan without executing it.
	OpExplain = "explain"
	// OpExplainAnalyze executes the statement and returns the plan
	// annotated with estimated vs actual cardinalities.
	OpExplainAnalyze = "explain_analyze"
	// OpWaterfall executes the statement traced and returns the span
	// waterfall rendering.
	OpWaterfall = "waterfall"
	// OpStats returns the collected optimizer statistics for one table.
	OpStats = "stats"
	// OpTables lists tables with row counts.
	OpTables = "tables"
	// OpAnalyze collects optimizer statistics (Table restricts to one).
	OpAnalyze = "analyze"
	// OpPrepare parses and analyzes SQL under Name for repeated OpRun.
	OpPrepare = "prepare"
	// OpRun executes the prepared statement Name.
	OpRun = "run"
	// OpCloseStmt discards the prepared statement Name.
	OpCloseStmt = "close_stmt"
	// OpSet changes one session default (Key/Value).
	OpSet = "set"
	// OpPin pins the session to the current snapshot: subsequent queries
	// read that version regardless of concurrent commits.
	OpPin = "pin"
	// OpUnpin releases a pinned snapshot; queries track the latest
	// committed version again.
	OpUnpin = "unpin"
	// OpQuit closes the session (line protocol: also the connection).
	OpQuit = "quit"
)

// TableInfo is one row of an OpTables listing.
type TableInfo struct {
	// Name is the table name.
	Name string `json:"name"`
	// Rows is the table's current row count.
	Rows int `json:"rows"`
}

// Response is the service's answer to one Request. OK distinguishes
// success from failure; on failure only Error (and the identifying
// Session/QueryID) are set.
type Response struct {
	// OK reports whether the operation succeeded.
	OK bool `json:"ok"`
	// Columns holds the result column names of a query.
	Columns []string `json:"columns,omitempty"`
	// Rows holds the result rows (canonically sorted) as JSON-native
	// values: numbers, strings, booleans, null.
	Rows [][]any `json:"rows,omitempty"`
	// RowsAffected is the DML row count for OpExec.
	RowsAffected int `json:"rows_affected,omitempty"`
	// Text carries rendered output: plans, waterfalls, statistics.
	Text string `json:"text,omitempty"`
	// Tables is the OpTables listing.
	Tables []TableInfo `json:"tables,omitempty"`
	// Session is the session the operation ran under.
	Session string `json:"session,omitempty"`
	// QueryID is the session's monotonic statement counter for this
	// operation; it matches the tag on trace spans and slow-log entries.
	QueryID uint64 `json:"query_id,omitempty"`
	// Epoch is the catalog epoch the operation observed.
	Epoch uint64 `json:"epoch,omitempty"`
	// ElapsedUS is the server-side execution time in microseconds.
	ElapsedUS int64 `json:"elapsed_us,omitempty"`
	// Error describes the failure when OK is false.
	Error *WireError `json:"error,omitempty"`
}

// WireError is the structured error shape sent to clients.
type WireError struct {
	// Kind classifies the failure: one of the Kind* constants.
	Kind string `json:"kind"`
	// Op is the failing operator path when the error originated inside
	// the executor (from *exec.QueryError).
	Op string `json:"op,omitempty"`
	// Message is the full error text.
	Message string `json:"message"`
}

// Error implements error so a WireError can travel through error paths
// on the client side.
func (e *WireError) Error() string { return e.Message }

// Error kinds carried in WireError.Kind.
const (
	// KindQuery is a generic statement failure: parse, analysis, or
	// semantic errors.
	KindQuery = "query"
	// KindExec is a contained executor failure (*exec.QueryError); Op
	// names the failing operator.
	KindExec = "exec"
	// KindCancelled reports the statement's context was cancelled.
	KindCancelled = "cancelled"
	// KindTimeout reports the statement exceeded its deadline.
	KindTimeout = "timeout"
	// KindAdmission reports the admission gate rejected the statement:
	// the queue was full or the queue wait timed out.
	KindAdmission = "admission"
	// KindDraining reports the server is shutting down and no longer
	// admits statements.
	KindDraining = "draining"
	// KindSession reports a session-level protocol error: unknown
	// prepared statement, bad option, malformed request.
	KindSession = "session"
)

// Sentinel errors surfaced by the admission gate and drain sequence.
var (
	// ErrDraining rejects statements arriving after drain began.
	ErrDraining = errors.New("service: draining, not admitting statements")
	// ErrOverloaded rejects statements when the admission queue is full.
	ErrOverloaded = errors.New("service: overloaded, admission queue full")
	// ErrQueueTimeout rejects statements that waited too long in the
	// admission queue.
	ErrQueueTimeout = errors.New("service: timed out waiting for admission")
)

// errSession marks session-level protocol errors so toWireError can
// classify them as KindSession.
type errSession struct{ msg string }

func (e errSession) Error() string { return e.msg }

// sessionErrorf builds a KindSession error.
func sessionErrorf(format string, args ...any) error {
	return errSession{msg: "service: " + fmt.Sprintf(format, args...)}
}

// toWireError maps an execution error onto the wire shape. Cancellation
// and deadline take precedence over the executor wrapper (a cancelled
// operator surfaces as *exec.QueryError wrapping context.Canceled); the
// operator path is preserved whenever one is present.
func toWireError(err error) *WireError {
	if err == nil {
		return nil
	}
	w := &WireError{Kind: KindQuery, Message: err.Error()}
	var qe *exec.QueryError
	if errors.As(err, &qe) {
		w.Kind, w.Op = KindExec, qe.Op
	}
	switch {
	case errors.Is(err, ErrDraining):
		w.Kind = KindDraining
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQueueTimeout):
		w.Kind = KindAdmission
	case errors.Is(err, context.DeadlineExceeded):
		w.Kind = KindTimeout
	case errors.Is(err, context.Canceled):
		w.Kind = KindCancelled
	default:
		var se errSession
		if errors.As(err, &se) {
			w.Kind = KindSession
		}
	}
	return w
}

// fail builds a failure Response for a session.
func fail(sess string, qid uint64, err error) Response {
	return Response{Session: sess, QueryID: qid, Error: toWireError(err)}
}
