package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// apiRequest is the HTTP request body: a Request plus the transport
// concerns the line protocol handles implicitly (session routing and
// streaming).
type apiRequest struct {
	Request
	// Session routes the request to an existing session; empty uses an
	// ephemeral session scoped to this request.
	Session string `json:"session,omitempty"`
	// Stream asks for newline-delimited JSON: a columns line, one line
	// per row, then a done trailer. Only OpQuery and OpRun stream.
	Stream bool `json:"stream,omitempty"`
}

// streamHeader is the first line of a streamed result.
type streamHeader struct {
	// Columns holds the result column names.
	Columns []string `json:"columns"`
	// Session and QueryID identify the execution, as in Response.
	Session string `json:"session"`
	// QueryID is the session's statement counter for this query.
	QueryID uint64 `json:"query_id"`
}

// streamTrailer is the last line of a streamed result.
type streamTrailer struct {
	// Done is always true; it marks the trailer line.
	Done bool `json:"done"`
	// Rows is the total row count sent.
	Rows int `json:"rows"`
	// Epoch is the catalog epoch the query observed.
	Epoch uint64 `json:"epoch"`
	// ElapsedUS is the server-side execution time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/query    {"sql": ..., "session"?: ..., "stream"?: true}
//	POST /v1/exec     {"sql": ...}
//	POST /v1/prepare  {"session": ..., "name": ..., "sql": ...}
//	POST /v1/run      {"session": ..., "name": ..., "stream"?: true}
//	POST /v1/explain  {"sql": ..., "op"?: "explain_analyze" | "waterfall"}
//	POST /v1/analyze  {"table"?: ...}
//	POST /v1/session  {"op": "hello" | "set" | "pin" | "unpin" | "quit", ...}
//	GET  /v1/tables
//	GET  /v1/stats
//	GET  /healthz
//
// Responses are Response JSON; streamed queries send header, row, and
// trailer lines instead. Errors keep HTTP 200 with ok=false except for
// transport-level problems (bad JSON = 400, a body over maxLine = 413,
// draining = 503).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleOp(OpQuery))
	mux.HandleFunc("POST /v1/exec", s.handleOp(OpExec))
	mux.HandleFunc("POST /v1/prepare", s.handleOp(OpPrepare))
	mux.HandleFunc("POST /v1/run", s.handleOp(OpRun))
	mux.HandleFunc("POST /v1/explain", s.handleOp(OpExplain))
	mux.HandleFunc("POST /v1/analyze", s.handleOp(OpAnalyze))
	mux.HandleFunc("POST /v1/session", s.handleOp(OpHello))
	mux.HandleFunc("GET /v1/tables", func(w http.ResponseWriter, r *http.Request) {
		sess := s.OpenSession()
		defer s.CloseSession(sess)
		writeJSON(w, http.StatusOK, s.doTables(sess))
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleOp adapts one operation to HTTP: it decodes the body, resolves
// the session (ephemeral when unnamed), runs Do, and encodes the result
// as one JSON object or a stream.
func (s *Server) handleOp(defaultOp string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req apiRequest
		body := http.MaxBytesReader(w, r.Body, maxLine)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
				err = fmt.Errorf("body exceeds %d bytes", tooLarge.Limit)
			}
			writeJSON(w, status, fail("", 0, sessionErrorf("bad request body: %v", err)))
			return
		}
		if req.Op == "" {
			req.Op = defaultOp
		}
		sess, ephemeral, err := s.resolveSession(req.Session)
		if err != nil {
			writeJSON(w, http.StatusOK, fail(req.Session, 0, err))
			return
		}
		// An ephemeral session lives for this request only — except when
		// the client is explicitly opening one (hello), which hands the
		// session ID back for reuse across requests.
		if ephemeral && req.Op != OpHello {
			defer s.CloseSession(sess)
		}
		if req.Stream && (req.Op == OpQuery || req.Op == OpRun) {
			s.streamQuery(w, r, sess, req.Request)
			return
		}
		resp := s.Do(r.Context(), sess, req.Request)
		status := http.StatusOK
		if resp.Error != nil && resp.Error.Kind == KindDraining {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, resp)
	}
}

// resolveSession finds the named session or opens an ephemeral one.
func (s *Server) resolveSession(id string) (*Session, bool, error) {
	if id == "" {
		return s.OpenSession(), true, nil
	}
	if sess := s.Session(id); sess != nil {
		return sess, false, nil
	}
	return nil, false, sessionErrorf("no session %q", id)
}

// streamQuery runs a query and writes the result as newline-delimited
// JSON: {"columns":...}, one JSON array per row, {"done":true,...}.
// Errors before the first row are a plain Response line; the result is
// fully materialised before the header is sent, so a stream that opened
// always ends with the trailer.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, sess *Session, req Request) {
	resp := s.Do(r.Context(), sess, req)
	if resp.Error != nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	enc.Encode(streamHeader{Columns: resp.Columns, Session: resp.Session, QueryID: resp.QueryID})
	for _, row := range resp.Rows {
		if err := enc.Encode(row); err != nil {
			return // client went away
		}
	}
	enc.Encode(streamTrailer{Done: true, Rows: len(resp.Rows), Epoch: resp.Epoch, ElapsedUS: resp.ElapsedUS})
}

// writeJSON encodes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
