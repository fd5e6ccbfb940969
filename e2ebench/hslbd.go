package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildHslbd builds cmd/hslbd of the checkout at root.
func buildHslbd(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "hslbd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hslbd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/hslbd: %w", err)
	}
	return bin, nil
}

// daemon is one running hslbd.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logged  chan struct{} // closed once hslbd's stderr is drained
	stopped sync.Once
}

// startHslbd starts hslbd with its shipped defaults on a free loopback
// port and returns once it answers /v1/healthz.
func startHslbd(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// hslbd must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hslbd: %w", err)
	}
	d := &daemon{cmd: cmd, logged: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "hslbd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.logged:
		d.stop()
		return nil, fmt.Errorf("hslbd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("hslbd did not listen within 30s")
	}
	hc := &http.Client{Timeout: time.Second}
	for i := 0; ; i++ {
		resp, err := hc.Get(d.url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, nil
			}
		}
		if i == 1000 {
			d.stop()
			return nil, fmt.Errorf("hslbd listens but /v1/healthz does not answer 200")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts hslbd down gracefully, kills it if it does not exit within
// 15s, and waits until it has exited. Calls after the first do nothing.
func (d *daemon) stop() {
	d.stopped.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		exited := make(chan struct{})
		go func() {
			<-d.logged
			_ = d.cmd.Wait() // how hslbd exited does not change the run's result
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-exited
		}
	})
}

// cpuSeconds is hslbd's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return (ut + st) / 100, nil
}

// waitIdle returns once hslbd has used no CPU for idleSpan, or after
// idleWait.
func (d *daemon) waitIdle() error {
	const (
		idleSpan = 200 * time.Millisecond
		idleWait = 30 * time.Second
	)
	last, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	stop := time.Now().Add(idleWait)
	for since := time.Now(); time.Since(since) < idleSpan && time.Now().Before(stop); {
		time.Sleep(idleSpan / 4)
		cur, err := d.cpuSeconds()
		if err != nil {
			return err
		}
		if cur != last {
			last, since = cur, time.Now()
		}
	}
	return nil
}

// peakRSSMB is hslbd's peak resident set size (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// statz is a snapshot of the numeric counters of hslbd's /v1/statz.
type statz map[string]float64

func (s statz) delta(before statz, key string) float64 { return s[key] - before[key] }

// readStatz fetches /v1/statz, keeping its top-level numbers.
func readStatz(c *client) (statz, error) {
	var raw map[string]interface{}
	if err := c.getJSON("/v1/statz", &raw); err != nil {
		return nil, err
	}
	s := statz{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			s[k] = f
		}
	}
	return s, nil
}
