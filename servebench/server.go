package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running `qpld serve` child process and the single
// keep-alive client connection the benchmark talks to it over.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	exited chan struct{}
}

// logWriter keeps the server's stderr for diagnostics and reports the
// address from its "serving on ADDR" start-up line.
type logWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *logWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const marker = "serving on "
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			if f := strings.Fields(s[i+len(marker):]); len(f) > 1 {
				w.addr <- f[0]
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *logWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// serveCache bounds the server's result, graph and session LRUs. The
// default (256) would hold 256 full-chip results of ~20 MB each, growing
// the server past 2 GB within one run; no workload reuses anything older
// than two requests.
const serveCache = 32

// startServer launches bin as `qpld serve` on an ephemeral loopback port
// and returns once /healthz answers.
func startServer(bin, dataDir string) (*server, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-cache", strconv.Itoa(serveCache),
		"-workers", strconv.Itoa(serveWorkers), "-build-workers", strconv.Itoa(serveWorkers)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	lw := &logWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = lw
	cmd.Stderr = lw
	// The server must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	select {
	case addr := <-lw.addr:
		s.base = "http://" + addr
	case <-s.exited:
		return nil, fmt.Errorf("server exited during start-up:\n%s", lw)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("server printed no address within 30s:\n%s", lw)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not healthy within 30s (%v):\n%s", err, lw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the server down (SIGTERM, then SIGKILL after a grace period)
// and returns once the process has exited.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// reply is the part of a decompose response the benchmark checks.
type reply struct {
	Fragments  int     `json:"fragments"`
	Conflicts  int     `json:"conflicts"`
	Stitches   int     `json:"stitches"`
	Degraded   int     `json:"degraded"`
	Cached     bool    `json:"cached"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	LayoutHash string  `json:"layout_hash"`
	Error      string  `json:"error"`
}

// post sends one prepared body and returns the HTTP status, the raw reply
// and the client-observed latency: from the send to the last body byte.
func (s *server) post(ctx context.Context, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, raw, lat, err
}

// serverStats is the part of GET /v1/stats the per-layer metrics use.
type serverStats struct {
	Engines map[string]float64 `json:"engines"`
	Shapes  struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"shapes"`
	Store *struct {
		WALBytes float64 `json:"wal_bytes"`
		Edits    float64 `json:"edits"`
	} `json:"store"`
}

func (s *server) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return st, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture the benchmark targets.
const clockTick = 10 * time.Millisecond

// cpuTime is the server's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(b)
	return time.Duration(ticks) * clockTick, err
}

// peakRSSMB is the server's peak resident set size (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	return float64(kb) / 1024, err
}
