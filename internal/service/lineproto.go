package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
)

// maxLine bounds one request: a line-protocol line or an HTTP body
// (1 MiB, matching the shell's input buffer). Responses are unbounded.
const maxLine = 1 << 20

// ServeLine accepts line-protocol connections on l until the listener
// closes (Drain closes tracked connections; close the listener to stop
// accepting). The protocol is newline-delimited JSON: the client sends
// one Request per line and receives one Response per line, in order.
// Each connection owns one session, opened on accept and closed with
// the connection, so \set-style state is naturally connection-scoped.
func (s *Server) ServeLine(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(conn)
	}
}

// serveConn runs one connection's request loop.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.trackConn(conn)
	defer s.untrackConn(conn)

	sess := s.OpenSession()
	defer s.CloseSession(sess)

	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, maxLine), maxLine)
	enc := json.NewEncoder(conn)
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			if enc.Encode(fail(sess.id, 0, sessionErrorf("bad request: %v", err))) != nil {
				return
			}
			continue
		}
		// Statements are serial per connection; cancellation arrives via
		// server drain (which cancels registered in-flight statements
		// directly), so the background context suffices.
		resp := s.Do(context.Background(), sess, req)
		if err := enc.Encode(resp); err != nil {
			return
		}
		if req.Op == OpQuit {
			return
		}
	}
}

// DialLine connects a line-protocol client to addr and performs the
// hello handshake, returning the client and the server-assigned
// session ID.
func DialLine(addr string) (*LineClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &LineClient{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}
	resp, err := c.Do(Request{Op: OpHello})
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.session = resp.Session
	return c, nil
}

// LineClient is a synchronous line-protocol client: one request, one
// response, in order. It is not safe for concurrent use — open one
// client per concurrent session, which is the protocol's session model
// anyway.
type LineClient struct {
	conn    net.Conn
	enc     *json.Encoder
	dec     *json.Decoder
	session string
}

// Session returns the server-assigned session ID.
func (c *LineClient) Session() string { return c.session }

// Do sends one request and reads its response, of any length. A
// transport failure closes the connection; a Response with ok=false is
// returned as the response AND as its *WireError so call sites can
// branch on err alone.
func (c *LineClient) Do(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Response{}, err
	}
	if resp.Error != nil {
		return resp, resp.Error
	}
	return resp, nil
}

// Close ends the session (best-effort quit) and closes the connection.
func (c *LineClient) Close() error {
	c.enc.Encode(Request{Op: OpQuit})
	return c.conn.Close()
}
