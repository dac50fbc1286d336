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
	"strings"
	"syscall"
	"time"
)

// daemon is one dramdigd process with private durable directories and a
// free loopback port.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	stderr string
	base   string
	exited chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with default flags plus an address and durable
// -cache-dir/-queue-dir under a fresh directory inside parent, and waits
// for the first 200 from /v1/healthz. It returns the time from exec to
// that answer.
func startDaemon(bin, parent string) (*daemon, time.Duration, error) {
	dir, err := os.MkdirTemp(parent, "dramdigd-")
	if err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	d := &daemon{dir: dir, stderr: filepath.Join(dir, "stderr.log"), exited: make(chan error, 1)}
	d.base = fmt.Sprintf("http://127.0.0.1:%d", port)
	logf, err := os.Create(d.stderr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	d.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-cache-dir", filepath.Join(dir, "cache"),
		"-queue-dir", filepath.Join(dir, "queue"))
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	// Should the harness itself be killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	logf.Close() // the child holds its own descriptor
	go func() { d.exited <- d.cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return d, time.Since(t0), nil
			}
		}
		select {
		case werr := <-d.exited:
			d.exited <- werr
			return d, 0, fmt.Errorf("dramdigd exited during boot: %v", werr)
		case <-time.After(250 * time.Microsecond):
		}
		if time.Since(t0) > 30*time.Second {
			return d, 0, errors.New("dramdigd did not answer /v1/healthz within 30 s")
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM to the daemon's PID, waits for it to exit (killing
// it after 15 s), and only then removes its directories: queue
// compaction on shutdown would race an earlier removal. With keep set
// the directories, stderr included, stay for inspection.
func (d *daemon) stop(keep bool) error {
	if d == nil {
		return nil
	}
	var err error
	select {
	case err = <-d.exited:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err = <-d.exited:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			err = <-d.exited
		}
	}
	if !keep {
		os.RemoveAll(d.dir)
	}
	return err
}

// stderrTail returns the last lines the daemon wrote.
func (d *daemon) stderrTail(lines int) string {
	b, err := os.ReadFile(d.stderr)
	if err != nil {
		return ""
	}
	all := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// client talks to one daemon over at most two loopback connections: the
// event stream and the call that follows it.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 150 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx answer.
func (c *client) do(method, path string, body []byte, traceparent string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (c *client) postCampaign(body []byte, traceparent string) (string, error) {
	b, err := c.do("POST", "/v1/campaigns", body, traceparent)
	if err != nil {
		return "", err
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &resp); err != nil || resp.ID == "" {
		return "", fmt.Errorf("POST /v1/campaigns: no campaign id in %q", b)
	}
	return resp.ID, nil
}

// waitDone reads the campaign's Server-Sent Events until the terminal
// "done" event and returns an error unless the campaign finished "done".
func (c *client) waitDone(id, traceparent string) error {
	path := "/v1/campaigns/" + id + "/events"
	req, err := http.NewRequest("GET", c.base+path, nil)
	if err != nil {
		return err
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			var final struct {
				Status string `json:"status"`
				Err    string `json:"err"`
			}
			if err := json.Unmarshal([]byte(v), &final); err != nil {
				return fmt.Errorf("GET %s: bad done event %q", path, v)
			}
			if final.Status != "done" {
				return fmt.Errorf("campaign %s ended %q: %s", id, final.Status, final.Err)
			}
			// Drain to EOF so the connection returns to the pool.
			io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return fmt.Errorf("GET %s: stream ended without a done event", path)
}

// jobJSON and reportJSON are the parts of GET /v1/campaigns/{id} the
// harness reads.
type jobJSON struct {
	Name               string `json:"name"`
	OK                 bool   `json:"ok"`
	Attempts           int    `json:"attempts"`
	MachineFingerprint string `json:"machine_fingerprint"`
	Err                string `json:"err"`
}

type reportJSON struct {
	Jobs []jobJSON `json:"jobs"`
}

func (c *client) report(id, traceparent string) (*reportJSON, error) {
	b, err := c.do("GET", "/v1/campaigns/"+id, nil, traceparent)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Status string      `json:"status"`
		Report *reportJSON `json:"report"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, fmt.Errorf("GET /v1/campaigns/%s: %v", id, err)
	}
	if resp.Report == nil {
		return nil, fmt.Errorf("GET /v1/campaigns/%s: no report (status %q)", id, resp.Status)
	}
	return resp.Report, nil
}
