package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/pkg/vnnserver"
)

// serveEnv marks the serving child: the benchmark binary re-executes
// itself with this variable set, so the server under load is a process
// of its own whose memory the load generator does not share.
const serveEnv = "VNNBENCH_SERVE"

// serveIfChild runs the serving process and exits when the variable is
// set; otherwise it returns at once.
func serveIfChild() {
	if os.Getenv(serveEnv) == "" {
		return
	}
	if err := serve(); err != nil {
		fmt.Fprintln(os.Stderr, "vnnbench serve:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// serve runs pkg/vnnserver with its default configuration on a loopback
// port, prints the address on stdout and serves until stdin closes (the
// parent closing the pipe, or dying).
func serve() error {
	srv := vnnserver.New(vnnserver.Config{NodeID: "vnnbench"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	fmt.Println(ln.Addr().String())
	_, _ = io.Copy(io.Discard, os.Stdin)
	srv.Drain(5 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// server is a running serving child and the client that loads it.
type server struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	base   string
	client *http.Client
	tamper func([]byte) []byte
}

// startServer launches a serving child and waits for its address. The
// client holds at most cfg.conns connections.
func startServer(cfg config) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serveEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start serving process: %w", err)
	}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		stdin.Close()
		_ = cmd.Wait()
		return nil, fmt.Errorf("serving process gave no address: %w", err)
	}
	tr := &http.Transport{
		MaxConnsPerHost:     cfg.conns,
		MaxIdleConnsPerHost: cfg.conns,
		DisableCompression:  true,
	}
	return &server{
		cmd:    cmd,
		stdin:  stdin,
		base:   "http://" + strings.TrimSpace(addr),
		client: &http.Client{Transport: tr},
		tamper: cfg.tamper,
	}, nil
}

// stop closes the child's stdin and waits for it to exit.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	s.stdin.Close()
	return s.cmd.Wait()
}

// post sends body to path and returns the status and response body.
func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if s.tamper != nil {
		out = s.tamper(out)
	}
	return resp.StatusCode, out, err
}

// getJSON decodes the JSON document at path into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metrics reads the server's Metrics() snapshot through /metrics.
func (s *server) metrics() (vnnserver.Metrics, error) {
	var m vnnserver.Metrics
	err := s.getJSON("/metrics", &m)
	return m, err
}

// rssPeakMB is the serving process's peak resident set (VmHWM) in MiB.
func (s *server) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// histDelta is the named histogram's growth between two snapshots
// (route selects one entry of the request-duration family).
func histDelta(m0, m1 vnnserver.Metrics, name, route string) obs.HistogramJSON {
	find := func(m vnnserver.Metrics) obs.HistogramJSON {
		for _, h := range m.Histograms {
			if h.Name == name && h.Route == route {
				return h
			}
		}
		return obs.HistogramJSON{}
	}
	return find(m1).Delta(find(m0))
}

// histQuantile is the q-quantile of h in h's unit, interpolated linearly
// inside its log2 bucket (obs.HistogramJSON.Quantile reports only the
// bucket bound).
func histQuantile(h obs.HistogramJSON, q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	need := q * float64(h.Count)
	var cum float64
	for k, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= need {
			k = min(k, obs.NumBuckets-1)
			lo, hi := float64(0), float64(obs.BucketUpper(k))
			if k > 0 {
				lo = float64(obs.BucketUpper(k - 1))
			}
			return (lo + (need-cum)/float64(c)*(hi-lo)) * h.Scale
		}
		cum += float64(c)
	}
	return float64(obs.BucketUpper(obs.NumBuckets-1)) * h.Scale
}

// cpuSeconds is the serving process's CPU time so far: the scheduler's
// on-CPU nanoseconds of each of its threads (/proc/<pid>/task/*/
// schedstat), summed. Time the hypervisor or other processes take from
// its cores is not charged to it, so CPU time per request stays steady
// on a shared machine where wall time does not. (A thread that exits
// takes its time with it; the Go runtime keeps its threads.)
func (s *server) cpuSeconds() (float64, error) {
	pid := s.cmd.Process.Pid
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited since the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for thread %s of %d", t.Name(), pid)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return ns / 1e9, nil
}

// stealShare is the share of all CPU time the hypervisor stole between
// two /proc/stat "cpu" lines (see readCPUStat).
func stealShare(a, b []float64) float64 {
	var total float64
	for i := range b {
		total += b[i] - a[i]
	}
	if total <= 0 || len(b) < 8 {
		return 0
	}
	return (b[7] - a[7]) / total
}

// readCPUStat returns the machine-wide "cpu" line of /proc/stat.
func readCPUStat() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		out = append(out, v)
	}
	return out
}
