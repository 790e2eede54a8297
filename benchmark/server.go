package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the checkout root, the
// directory that holds cmd/ulixesd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ulixesd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no cmd/ulixesd above the working directory; run from inside a checkout")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/ulixesd into <root>/.bench_build, next to the
// harness binary benchmark/run.sh builds; build time is outside setup_s.
func buildDaemon(root string) (string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	bin := filepath.Join(root, ".bench_build", "ulixesd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ulixesd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ulixesd: %v\n%s", err, out)
	}
	return bin, nil
}

// siteFlags are the fixed site sizes every workload uses.
func siteFlags() []string {
	return []string{"-courses", strconv.Itoa(siteCourses), "-profs", strconv.Itoa(siteProfs), "-depts", strconv.Itoa(siteDepts)}
}

// daemon is one running ulixesd.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	http   *http.Client
	logMu  sync.Mutex
	log    []string // guarded by logMu
	logEnd chan struct{}
}

var servingLine = regexp.MustCompile(`serving \S+ on (http://\S+)`)

// startDaemon starts ulixesd on an ephemeral port, reads the listen address
// from its log line and waits for /healthz.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, siteFlags()...)
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	// If the harness is killed, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:    cmd,
		logEnd: make(chan struct{}),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 16, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute,
		}},
	}
	addr := make(chan string, 1) // one send: the first serving line
	go func() {
		defer close(d.logEnd)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log = append(d.log, line)
			d.logMu.Unlock()
			if m := servingLine.FindStringSubmatch(line); m != nil && !sent {
				sent = true
				addr <- m[1]
			}
		}
	}()
	select {
	case d.base = <-addr:
	case <-d.logEnd:
		_ = cmd.Wait()
		return nil, fmt.Errorf("ulixesd exited before serving:\n%s", d.logText())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("ulixesd printed no listen address in 30 s:\n%s", d.logText())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.http.Get(d.base + "/healthz") //lint:allow fetchgate client of the server under test, not a page fetch
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("ulixesd /healthz not ready in 10 s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log, "\n")
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.logEnd
	_ = d.cmd.Wait()
}

// stop sends SIGTERM and requires the graceful drain to exit 0.
func (d *daemon) stop() error {
	d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	timer := time.AfterFunc(20*time.Second, func() { _ = d.cmd.Process.Kill() })
	<-d.logEnd // the pipe closes when the process exits
	err := d.cmd.Wait()
	timer.Stop()
	if err != nil {
		return fmt.Errorf("ulixesd did not drain cleanly: %v\n%s", err, d.logText())
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// queryResp is the part of ulixesd's /query response the harness checks.
type queryResp struct {
	EstimatedCost float64    `json:"estimatedCost"`
	Columns       []string   `json:"columns"`
	Rows          [][]string `json:"rows"`
	Stats         struct {
		Accesses         int     `json:"accesses"`
		Pages            int     `json:"pages"`
		CacheHits        int     `json:"cacheHits"`
		Revalidations    int     `json:"revalidations"`
		LightConnections int     `json:"lightConnections"`
		Stale            int     `json:"stale"`
		WallMs           float64 `json:"wallMs"`
		PlanMs           float64 `json:"planMs"`
		PlanCached       bool    `json:"planCached"`
		FromView         bool    `json:"fromView"`
	} `json:"stats"`
	Degraded        bool              `json:"degraded"`
	DeadlineExpired bool              `json:"deadlineExpired"`
	Failures        []json.RawMessage `json:"failures"`
}

// serverStats is the part of /stats the harness reads.
type serverStats struct {
	Fetches           int    `json:"fetches"`
	Rejected          int64  `json:"rejected"`
	Shed              int64  `json:"shed"`
	QueueDropped      int    `json:"queueDropped"`
	QueueCostRejected int    `json:"queueCostRejected"`
	PlanHits          uint64 `json:"planHits"`
	PlanMisses        uint64 `json:"planMisses"`
	Standing          *struct {
		Deltas int `json:"deltas"`
	} `json:"standing"`
}

// refused counts the requests the admission layer turned away.
func (s serverStats) refused() int {
	return int(s.Rejected) + int(s.Shed) + s.QueueDropped + s.QueueCostRejected
}

// call sends one request to the server and decodes a 200 response into out.
func (d *daemon) call(ctx context.Context, method, path, body string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.http.Do(req) //lint:allow fetchgate client of the server under test, not a page fetch
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Read to EOF before decoding, so the connection goes back to the pool.
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		if len(b) > 512 {
			b = b[:512]
		}
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}

func (d *daemon) post(ctx context.Context, path, body string, out any) error {
	return d.call(ctx, http.MethodPost, path, body, out)
}

func (d *daemon) query(ctx context.Context, text string) (*queryResp, error) {
	var r queryResp
	if err := d.post(ctx, "/query", text, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func (d *daemon) stats(ctx context.Context) (serverStats, error) {
	var s serverStats
	err := d.call(ctx, http.MethodGet, "/stats", "", &s)
	return s, err
}
