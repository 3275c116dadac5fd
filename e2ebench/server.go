package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nra/internal/service"
)

// server is one running nrad process on loopback ports.
type server struct {
	cmd      *exec.Cmd
	lineAddr string
	httpAddr string
	stderr   chan struct{} // closed when the stderr reader has drained
	log      *strings.Builder
}

// measureSetup starts nrad setupRepeats times, each on a fresh copy of
// the pristine segment directory, and times each start until the server
// answers its first hello. Every server but the last is stopped; the
// last one is returned for the measured run.
func measureSetup(bin, pristine, tmp string) ([]time.Duration, *server, error) {
	var times []time.Duration
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("serve-%d", i))
		if err := copyDir(pristine, dir); err != nil {
			return nil, nil, err
		}
		srv, d, err := startServer(bin, dir)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d)
		if i == setupRepeats-1 {
			return times, srv, nil
		}
		if err := srv.stop(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	panic("unreachable")
}

// startServer launches nrad with its default flags on dir (only the
// listen addresses are chosen by the kernel) and returns once a
// line-protocol hello succeeds, with the elapsed time since launch.
func startServer(bin, dir string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, "-dir", dir, "-addr", "127.0.0.1:0", "-line-addr", "127.0.0.1:0")
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start nrad: %w", err)
	}
	s := &server{cmd: cmd, stderr: make(chan struct{}), log: &strings.Builder{}}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(s.stderr)
		var httpAddr, lineAddr string
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if s.log.Len() < 1<<16 {
				s.log.WriteString(line + "\n")
			}
			if a, ok := strings.CutPrefix(line, "nrad: http api on "); ok {
				httpAddr = a
			}
			if a, ok := strings.CutPrefix(line, "nrad: line protocol on "); ok {
				lineAddr, _, _ = strings.Cut(a, " ")
			}
			if httpAddr != "" && lineAddr != "" {
				addrs <- [2]string{httpAddr, lineAddr}
				httpAddr = ""
			}
		}
		// Drain whatever else the server writes until it exits.
		io.Copy(io.Discard, pipe)
	}()
	select {
	case a := <-addrs:
		s.httpAddr, s.lineAddr = a[0], a[1]
	case <-s.stderr:
		s.stop()
		return nil, 0, fmt.Errorf("nrad exited before listening: %s", s.log.String())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("nrad did not start listening within 60s")
	}
	c, err := dialLine(s.lineAddr)
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	resp, _, err := c.roundTrip(mustJSON(service.Request{Op: service.OpHello}))
	elapsed := time.Since(start)
	c.close()
	if err == nil {
		var r wireResponse
		if err = json.Unmarshal(resp, &r); err == nil && !r.OK {
			err = fmt.Errorf("hello refused: %s", resp)
		}
	}
	if err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("hello: %w", err)
	}
	return s, elapsed, nil
}

// stop kills the server and waits for it to exit. The benchmark
// discards the directory, so no graceful checkpoint is needed.
func (s *server) stop() error {
	if s.cmd.Process == nil {
		return nil
	}
	err := s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.stderr
	werr := s.cmd.Wait()
	if err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("stop nrad: %w", err)
	}
	if ee, ok := werr.(*exec.ExitError); ok && !ee.Exited() {
		return nil // killed by our signal, as intended
	}
	return werr
}

// peakRSSMB reads the server's peak resident set size (VmHWM) in MiB.
func (s *server) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// serverStats is the subset of the server's GET /v1/stats counters the
// benchmark reads.
type serverStats struct {
	Admitted  int64
	Queued    int64
	Inflight  int64
	PlanCache struct {
		Hits, Misses, Invalidations, Evictions uint64
	}
}

// stats fetches the server's counters.
func (s *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get("http://" + s.httpAddr + "/v1/stats")
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// lineConn is the benchmark's own line-protocol client. Unlike
// service.LineClient it reads a response line of any length.
type lineConn struct {
	c   net.Conn
	r   *bufio.Reader
	buf []byte // the request line being sent
}

func dialLine(addr string) (*lineConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &lineConn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

// roundTrip sends one encoded request and returns the raw response
// line. The duration runs from the send to the response's last byte.
func (l *lineConn) roundTrip(req []byte) ([]byte, time.Duration, error) {
	l.buf = append(append(l.buf[:0], req...), '\n')
	start := time.Now()
	if _, err := l.c.Write(l.buf); err != nil {
		return nil, 0, err
	}
	resp, err := l.r.ReadBytes('\n')
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	return resp, d, nil
}

func (l *lineConn) close() { l.c.Close() }

// wireResponse is service.Response with the rows kept as raw JSON, so
// they compare byte for byte with the encoding of a reference result.
type wireResponse struct {
	OK           bool               `json:"ok"`
	Columns      []string           `json:"columns"`
	Rows         json.RawMessage    `json:"rows"`
	RowsAffected int                `json:"rows_affected"`
	Epoch        uint64             `json:"epoch"`
	ElapsedUS    int64              `json:"elapsed_us"`
	Error        *service.WireError `json:"error"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// copyDir copies a flat directory of regular files.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of a directory's regular files.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// median returns the middle value (mean of the two middle values).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile by linear interpolation
// between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
