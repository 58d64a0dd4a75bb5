package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one fem2d child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time // just before exec

	mu   sync.Mutex
	logs bytes.Buffer // the child's stderr after the serving line
	done chan struct{}
}

// startDaemon execs the pre-built fem2d on a free loopback port and
// returns once it logs its listening address.  storePath selects the
// file backend ("" = mem); -store-sync is never passed, so the file
// backend runs the daemon's default flush policy: one write(2) per
// batch, no fsync.
func startDaemon(bin, storePath string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-quiet"}
	if storePath != "" {
		args = append(args, "-store", "file", "-store-path", storePath)
	}
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// The daemon must not outlive a benchmark that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		serving := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on 127.0.0.1:"); i >= 0 && !serving {
				addrc <- line[i+len(" on "):]
				serving = true
				continue
			}
			d.mu.Lock()
			d.logs.WriteString(line + "\n")
			d.mu.Unlock()
		}
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		err = fmt.Errorf("fem2d exited before serving: %s", d.output())
	case <-time.After(20 * time.Second):
		err = fmt.Errorf("fem2d did not start serving within 20s: %s", d.output())
	}
	d.kill()
	return nil, err
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes more than ten seconds.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.kill()
		return fmt.Errorf("fem2d ignored SIGTERM for 10s; killed")
	}
	return d.cmd.Wait()
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
	_ = d.cmd.Wait() // the exit status of a killed child says nothing
}

// procSample is one reading of the daemon's /proc entries.
type procSample struct {
	cpuTicks int64 // utime+stime in clock ticks
	rssKB    int64 // VmRSS
}

// clockTick is the length of one /proc clock tick.  USER_HZ has been 100
// on every Linux platform Go supports since 2.6.
const clockTick = 10 * time.Millisecond

func (d *daemon) sample() (procSample, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	var s procSample
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12 from it.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("bad cpu times in /proc/%s/stat", pid)
	}
	s.cpuTicks = ut + st
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			s.rssKB, err = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return s, err
		}
	}
	return s, fmt.Errorf("no VmRSS in /proc/%s/status", pid)
}
