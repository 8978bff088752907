package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cbfww/internal/gateway"
)

// Daemon is one cbfww-serve process under test.
type Daemon struct {
	Addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan error
	// listening is closed when the daemon logs that it listens; copied
	// when its standard error, copied into the log, reaches EOF.
	listening chan struct{}
	copied    chan struct{}
}

// StartDaemon launches the binary with args (which must include -addr
// equal to addr) and returns once it is running; Ready waits for it to
// answer.
func StartDaemon(bin, addr, logPath string, args []string) (*Daemon, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	// The daemon logs to standard error; reading it through a pipe tells
	// the moment it listens, so Ready need not poll a port that is not
	// open yet.
	pr, pw, err := os.Pipe()
	if err != nil {
		lf.Close()
		return nil, fmt.Errorf("daemon log pipe: %w", err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = lf
	cmd.Stderr = pw
	// A benchmark killed mid-run must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &Daemon{Addr: addr, cmd: cmd, log: lf, done: make(chan error, 1),
		listening: make(chan struct{}), copied: make(chan struct{})}
	go func() { d.done <- cmd.Wait() }()
	go d.copyLog(pr)
	return d, nil
}

// copyLog copies the daemon's standard error into its log file until
// EOF, closing listening at the line that announces the listener.
func (d *Daemon) copyLog(r *os.File) {
	defer close(d.copied)
	defer r.Close()
	sc := bufio.NewScanner(r)
	seen := false
	for sc.Scan() {
		line := sc.Bytes()
		d.log.Write(append(line, '\n'))
		if !seen && bytes.Contains(line, []byte("cbfww-serve listening on")) {
			seen = true
			close(d.listening)
		}
	}
	// A line longer than the scanner's buffer ends the scan early; the
	// rest of the log is dropped rather than left to block the daemon.
	io.Copy(io.Discard, r)
}

// Ready waits until the daemon logs that it listens, then polls
// /healthz until it answers 200 or the deadline passes.
func (d *Daemon) Ready(c *http.Client, deadline time.Time) error {
	select {
	case <-d.listening:
	case err := <-d.done:
		d.done <- err
		return fmt.Errorf("daemon %s exited before ready: %v (log %s)", d.Addr, err, d.log.Name())
	case <-time.After(time.Until(deadline)):
		return fmt.Errorf("daemon %s did not listen by deadline (log %s)", d.Addr, d.log.Name())
	}
	for {
		resp, err := c.Get("http://" + d.Addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("daemon %s exited before ready: %v (log %s)", d.Addr, err, d.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s not ready by deadline (log %s)", d.Addr, d.log.Name())
		}
		// A fine, nanosleep-paced retry: launches take milliseconds, and a
		// runtime timer's wake-up error would be a visible share of them.
		sleepUntil(context.Background(), time.Now().Add(250*time.Microsecond))
	}
}

// Stop ends the process: SIGINT when graceful (the daemon then drains and
// checkpoints), SIGKILL otherwise. It waits for the exit either way.
func (d *Daemon) Stop(graceful bool) error {
	defer func() {
		<-d.copied
		d.log.Close()
	}()
	sig := os.Kill
	if graceful {
		sig = os.Interrupt
	}
	if err := d.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signal daemon %s: %w", d.Addr, err)
	}
	select {
	case err := <-d.done:
		var exit *exec.ExitError
		if graceful && err != nil && !errors.As(err, &exit) {
			return err
		}
		if graceful && err != nil {
			return fmt.Errorf("daemon %s: graceful stop: %v", d.Addr, err)
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("daemon %s: no exit within 60s of %v", d.Addr, sig)
	}
}

// PeakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (d *Daemon) PeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// CPUSeconds reads the process's user plus system CPU time so far, over
// all its threads, from /proc (in USER_HZ ticks, 100 a second on Linux).
func (d *Daemon) CPUSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %v %v", d.cmd.Process.Pid, err1, err2)
	}
	return (utime + stime) / 100, nil
}

// getStats reads a daemon's /stats.
func getStats(c *http.Client, addr string) (gateway.StatsResponse, error) {
	var st gateway.StatsResponse
	resp, err := c.Get("http://" + addr + "/stats")
	if err != nil {
		return st, fmt.Errorf("stats %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats %s: status %d", addr, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats %s: decode: %w", addr, err)
	}
	return st, nil
}

// resize posts a tier-capacity retarget to a daemon's /admin/resize.
func resize(c *http.Client, addr string, targets map[string]int64) error {
	body, err := json.Marshal(gateway.ResizeRequest{Targets: targets})
	if err != nil {
		return err
	}
	resp, err := c.Post("http://"+addr+"/admin/resize", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("resize %s: %w", addr, err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("resize %s: status %d: %s", addr, resp.StatusCode, msg)
	}
	return nil
}
