// Liveness of a daemon whose every P runs a long job.  The server reads
// and writes its sockets with raw system calls on Linux, and those never
// wake the runtime's monitor thread (sysmon), which alone preempts a
// long-running goroutine and polls the network while no P is free.  This
// test runs a real fem2d, holds both of its Ps with SOR solves that only
// raw reads started, and checks that a third connection is still
// answered and that SIGTERM still drains the daemon.
package fem2_test

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	fem2 "repro"
)

// TestDaemonAnswersWhileSolvesHoldEveryP: on a daemon with GOMAXPROCS=2,
// three connections open and the daemon goes idle, so sysmon sleeps.
// Then one connection submits an SOR solve of the 40×24 plate and a
// second runs one synchronously; while both run, the third pings and
// cancels the submitted job, each within a second, and SIGTERM ends the
// daemon within its drain timeout and a margin.  GOGC=off keeps a
// collection's start from waking sysmon, as a warm re-solve, which
// allocates nothing, would; then only the server's own timer does.
func TestDaemonAnswersWhileSolvesHoldEveryP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real daemon")
	}
	const answerBound = time.Second
	dir := t.TempDir()
	bin := buildFem2d(t, dir)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2", "-drain-timeout", "1s")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2", "GOGC=off")
	daemon, addr := startFem2d(t, cmd)
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	defer func() {
		daemon.Process.Kill()
		<-exited
	}()
	ctx := context.Background()

	dial := func(session string) *fem2.Client {
		cl, err := fem2.Dial(addr, session)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	plate := func(cl *fem2.Client) {
		mustRemote(t, cl, "generate grid g 40 24 40 24 clamp-left")
		mustRemote(t, cl, "load g tip endload 0 -100")
	}
	sor := fem2.SolveCommand{Model: "g", Set: "tip", Method: fem2.SolveSOR}

	submitter, solver, control := dial("a"), dial("b"), dial("c")
	plate(submitter)
	plate(solver)
	// Every P idle for longer than sysmon's longest tick.
	time.Sleep(100 * time.Millisecond)

	res, err := submitter.Do(ctx, fem2.SubmitCommand{Cmd: sor})
	if err != nil {
		t.Fatal(err)
	}
	id := res.(*fem2.SubmitResult).ID
	waited := make(chan error, 1)
	go func() {
		_, err := submitter.Do(ctx, fem2.WaitCommand{ID: id})
		waited <- err
	}()

	solved := make(chan error, 1)
	go func() {
		_, err := solver.Do(ctx, sor)
		solved <- err
	}()
	awaitBusyThreads(t, daemon.Process.Pid, 2)

	start := time.Now()
	if _, err := control.Do(ctx, fem2.PingCommand{}); err != nil {
		t.Fatalf("ping beside two solves: %v", err)
	}
	pinged := time.Since(start)
	start = time.Now()
	if _, err := control.Do(ctx, fem2.CancelCommand{ID: id}); err != nil {
		t.Fatalf("cancel of job-%d beside two solves: %v", id, err)
	}
	cancelled := time.Since(start)
	t.Logf("beside two SOR solves a ping took %v, a cancel %v", pinged, cancelled)
	for what, took := range map[string]time.Duration{"ping": pinged, "cancel": cancelled} {
		if took > answerBound {
			t.Errorf("a %s beside two SOR solves took %v; want at most %v", what, took, answerBound)
		}
	}
	select {
	case err := <-waited:
		if !errors.Is(err, fem2.ErrCancelled) {
			t.Errorf("wait on the cancelled job-%d: %v; want fem2.ErrCancelled", id, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("job-%d's wait never ended after its cancel", id)
	}

	select {
	case err := <-solved:
		t.Fatalf("the synchronous SOR solve ended before SIGTERM: %v", err)
	default:
	}
	start = time.Now()
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err
		t.Logf("SIGTERM drained the daemon in %v", time.Since(start))
		if err != nil {
			t.Errorf("daemon after SIGTERM: %v; want a clean exit", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the daemon still runs 10 s after SIGTERM with a 1 s drain timeout")
	}
	select {
	case err := <-solved:
		if err == nil {
			t.Error("the synchronous SOR solve cut by the drain reports success")
		}
	case <-time.After(10 * time.Second):
		t.Error("the synchronous SOR solve never returned after the daemon exited")
	}
}

// awaitBusyThreads waits until at least n threads of process pid are
// running or runnable at once, as read from /proc.
func awaitBusyThreads(t *testing.T, pid, n int) {
	t.Helper()
	tasks := filepath.Join("/proc", strconv.Itoa(pid), "task")
	if _, err := os.Stat(tasks); err != nil {
		t.Skipf("no per-thread state to read: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		busy := 0
		ents, _ := os.ReadDir(tasks)
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(tasks, e.Name(), "stat"))
			if err != nil {
				continue
			}
			// The state follows the parenthesised command name.
			if i := strings.LastIndexByte(string(b), ')'); i >= 0 && i+2 < len(b) && b[i+2] == 'R' {
				busy++
			}
		}
		if busy >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the daemon never ran %d threads at once", n)
		}
	}
}
