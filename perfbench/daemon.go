package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildCrskyd compiles cmd/crskyd from the checkout at root into out.
func buildCrskyd(root, out string) (string, error) {
	bin := filepath.Join(out, "crskyd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/crskyd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build crskyd: %w", err)
	}
	return bin, nil
}

// daemon is one crskyd child process with its serving and admin listeners
// on loopback.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port of the API listener
	admin   string // http://host:port of the admin listener
	started time.Time
	exited  chan struct{}
	waitErr error
	log     *os.File
	ctl     *http.Client // scrapes and set-up, never used by timed clients
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches crskyd on dataDir with the stated flush policy
// (-fsync=false) and waits until /healthz answers. started is taken just
// before the process is spawned, so callers can time a cold start.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	adminPort, err := freePort()
	if err != nil {
		return nil, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		admin:  fmt.Sprintf("http://127.0.0.1:%d", adminPort),
		exited: make(chan struct{}),
		log:    lf,
		ctl:    &http.Client{Timeout: 60 * time.Second},
	}
	d.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-admin", fmt.Sprintf("127.0.0.1:%d", adminPort),
		"-data-dir", dataDir,
		"-fsync=false",
		"-drain", "5s")
	d.cmd.Stdout = lf
	d.cmd.Stderr = lf
	// A benchmark killed mid-run must not leave crskyd behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start crskyd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(120 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls /healthz until it answers 200. crskyd opens its
// listener only after store recovery, so readiness marks the end of boot.
func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	probe := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("crskyd exited during boot: %v (see %s)", d.waitErr, d.log.Name())
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("crskyd not ready after %s", limit)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it outlives the grace period. It always waits for the exit.
func (d *daemon) stop() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.ctl.CloseIdleConnections()
	d.log.Close()
}

// newClient returns an HTTP client that holds exactly one keep-alive
// connection, so each closed-loop client is one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// httpError is a completed exchange with a non-2xx status.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, strings.TrimSpace(e.body))
}

// do sends one request and returns the body of a 2xx response; any other
// status is an *httpError.
func do(c *http.Client, method, url string, body any) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, resp.Header, &httpError{status: resp.StatusCode, body: string(out)}
	}
	return out, resp.Header, nil
}

// doJSON sends one request and decodes a 2xx JSON body into out.
func doJSON(c *http.Client, method, url string, body, out any) (http.Header, error) {
	b, h, err := do(c, method, url, body)
	if err != nil {
		return h, err
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return h, fmt.Errorf("decode %s %s: %w", method, url, err)
		}
	}
	return h, nil
}

// ndjsonLines splits an NDJSON body into its non-empty lines.
func ndjsonLines(b []byte) [][]byte {
	var out [][]byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			out = append(out, append([]byte(nil), line...))
		}
	}
	return out
}

// scrape is the server-side state the reconciliation gates and the
// per-layer ledger difference across a timed phase.
type scrape struct {
	prom  promScrape
	stats wireStats
	cpuS  float64
	host  cpuTimes
}

// wireStats is the subset of the /v1/stats payload the benchmark reads.
type wireStats struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Flights struct {
		Deduped int64 `json:"deduped"`
	} `json:"flights"`
	Pool struct {
		Completed int64 `json:"completed"`
	} `json:"pool"`
	Quadrature struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"quadrature"`
	Watch struct {
		Flipped int64 `json:"flipped"`
		Reevals int64 `json:"reevals"`
	} `json:"watch"`
}

func (d *daemon) scrape() (scrape, error) {
	var s scrape
	host, err := readCPUTimes()
	if err != nil {
		return s, err
	}
	s.host = host
	if s.cpuS, err = processCPUSeconds(d.pid()); err != nil {
		return s, err
	}
	b, _, err := do(d.ctl, http.MethodGet, d.admin+"/metrics", nil)
	if err != nil {
		return s, fmt.Errorf("scrape /metrics: %w", err)
	}
	if s.prom, err = parseProm(string(b)); err != nil {
		return s, err
	}
	if _, err := doJSON(d.ctl, http.MethodGet, d.base+"/v1/stats", nil, &s.stats); err != nil {
		return s, fmt.Errorf("scrape /v1/stats: %w", err)
	}
	return s, nil
}

// heapMB forces a GC in crskyd and returns its live heap (HeapAlloc) in
// MB, read from the admin pprof heap profile's runtime.MemStats block.
func (d *daemon) heapMB() (float64, error) {
	b, _, err := do(d.ctl, http.MethodGet, d.admin+"/debug/pprof/heap?debug=1&gc=1", nil)
	if err != nil {
		return 0, fmt.Errorf("heap profile: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return 0, err
			}
			return n / (1 << 20), nil
		}
	}
	return 0, errors.New("heap profile has no HeapAlloc line")
}
