package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
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

// summaryName is the live summary every workload writes and reads.
const summaryName = "flows"

// serverArgs are the sasserve flags every workload runs under: a 2-D
// 16-bit bit-trie domain, 4096-key snapshots from two shard builders, and
// the default interval WAL, persisting into the run's snapshot directory.
// The port is chosen by the kernel (-addr :0) and read back from the log,
// so concurrent runs never race for a free port.
func serverArgs(dir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-live", summaryName + "=bittrie:16,bittrie:16",
		"-live-size", "4096",
		"-live-shards", "2",
		"-wal-sync", "interval",
		"-snapshot-dir", dir,
	}
}

// readyTimeout bounds how long a start may take before the run fails.
const readyTimeout = 60 * time.Second

// server is one running sasserve process.
type server struct {
	cmd  *exec.Cmd
	dir  string
	base string // http://127.0.0.1:port

	addr   chan string   // receives the listen address once
	ready  chan struct{} // closed when the log says "ready"
	exited chan struct{} // closed once the process has been reaped

	mu   sync.Mutex
	tail []string // last log lines, for error reports
	err  error    // exit status, valid after exited closes
}

// procs tracks every started server so that any exit path can kill them.
var procs struct {
	mu   sync.Mutex
	list []*server
}

// startServer execs sasserve over snapshot directory dir and waits until
// /readyz answers 200.
func startServer(ctx context.Context, bin, dir string) (*server, error) {
	s := &server{
		dir:    dir,
		addr:   make(chan string, 1),
		ready:  make(chan struct{}),
		exited: make(chan struct{}),
	}
	s.cmd = exec.Command(bin, serverArgs(dir)...)
	s.cmd.Stdout = io.Discard
	// Should the harness itself be killed, the kernel kills the server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sasserve: %w", err)
	}
	procs.mu.Lock()
	procs.list = append(procs.list, s)
	procs.mu.Unlock()
	go s.readLog(stderr)

	if err := s.awaitReady(ctx, t0.Add(readyTimeout)); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// readLog drains the server's log, picks out the listen address and the
// ready line, and reaps the process at EOF (Wait must follow the last read).
func (s *server) readLog(r io.Reader) {
	sc := bufio.NewScanner(r)
	readySeen := false
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.tail = append(s.tail, line)
		if len(s.tail) > 20 {
			s.tail = s.tail[1:]
		}
		s.mu.Unlock()
		if _, a, ok := strings.Cut(line, " listening on "); ok {
			select {
			case s.addr <- a:
			default:
			}
		}
		if !readySeen && strings.HasSuffix(line, " ready") {
			readySeen = true
			close(s.ready)
		}
	}
	_, _ = io.Copy(io.Discard, r)
	err := s.cmd.Wait()
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
	close(s.exited)
}

func (s *server) awaitReady(ctx context.Context, deadline time.Time) error {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case a := <-s.addr:
		s.base = "http://" + a
	case <-s.exited:
		return s.died("before listening")
	case <-timer.C:
		return fmt.Errorf("sasserve did not listen within %v", readyTimeout)
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-s.ready:
	case <-s.exited:
		return s.died("before becoming ready")
	case <-timer.C:
		return fmt.Errorf("sasserve not ready within %v", readyTimeout)
	case <-ctx.Done():
		return ctx.Err()
	}
	c := newClient(s.base, nil)
	defer c.close()
	for {
		st, _, err := c.do("GET", "/readyz", "", nil)
		if err == nil && st == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/readyz not 200 within %v (status %d, %v)", readyTimeout, st, err)
		}
		select {
		case <-s.exited:
			return s.died("while probing /readyz")
		case <-time.After(time.Millisecond):
		}
	}
}

func (s *server) died(when string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Errorf("sasserve exited %s (%v); log tail:\n%s", when, s.err, strings.Join(s.tail, "\n"))
}

// alive reports an error if the server has exited.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return s.died("during the run")
	default:
		return nil
	}
}

// kill sends SIGKILL and waits until the process has been reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only when it has already exited
	<-s.exited
}

// killAll kills every server this process started.
func killAll() {
	procs.mu.Lock()
	list := procs.list
	procs.list = nil
	procs.mu.Unlock()
	for _, s := range list {
		s.kill()
	}
}

// clockTick is the unit of utime and stime in /proc/<pid>/stat: USER_HZ,
// which Linux fixes at 100 for user space on every architecture.
const clockTick = 10 * time.Millisecond

// parseStatCPU returns user+system CPU time from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces or
// parentheses, so fields are counted after its last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no command name")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// parseVmHWM returns the peak resident set size, in bytes, from the
// contents of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("status: no VmHWM line")
}

func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

func (s *server) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// client sends requests over exactly one keep-alive connection, so each
// load goroutine owns one connection. Calls are traced when tr is on.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, base: base, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(method, path, ctype string, body []byte) (int, []byte, error) {
	st, b, _, err := c.doHdr(method, path, ctype, body)
	return st, b, err
}

// doHdr is do that also returns the Retry-After header.
func (c *client) doHdr(method, path, ctype string, body []byte) (int, []byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, "", err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, "", err
	}
	return resp.StatusCode, b, resp.Header.Get("Retry-After"), nil
}
