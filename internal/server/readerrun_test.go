package server

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/command"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/wire"
)

var (
	bigGrid = command.GenerateGrid{Name: "big", NX: 40, NY: 24, W: 40, H: 24, ClampLeft: true}
	// sorBig iterates for seconds on bigGrid: SOR needs ~53 000 sweeps there.
	sorBig = command.Submit{Cmd: command.Solve{Model: "big", Set: "l", Method: command.MethodSOR}}
)

// jobState polls until the job is in want, failing the test after 5 s.
func jobState(t *testing.T, sys *core.System, id int64, want job.State) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if snap, err := sys.Jobs.Status(job.JobID(id)); err == nil && snap.State == want {
			return
		}
	}
	snap, err := sys.Jobs.Status(job.JobID(id))
	t.Fatalf("job-%d never reached %v (%v, %v)", id, want, snap.State, err)
}

func submitID(resp *wire.Response) int64 { return resp.Res.(*command.SubmitResult).ID }

// TestReaderJobTakesAPoolSlot: with one worker, a job running on
// connection A's reader holds the pool's one slot, so connection B's
// submitted job stays queued while it runs, and runs once it ends.
func TestReaderJobTakesAPoolSlot(t *testing.T) {
	sys := openSystem(t, core.Options{})
	srv := New(sys, Config{})
	dial := serveTCP(t, srv)
	a, b := dial(), dial()
	a.hello("a", false)
	b.hello("b", false)
	a.do(bigGrid)
	a.do(command.EndLoad{Model: "big", Set: "l", FY: -100})
	b.do(generate)
	b.do(command.EndLoad{Model: "g", Set: "l", FY: -100})
	solve := command.Submit{Cmd: command.Solve{Model: "g", Set: "l"}}
	runs := sys.Obs.Counter(obs.ServerReaderRuns)
	runs0 := runs.Load()

	long := submitID(a.do(sorBig))
	jobState(t, sys, long, job.Running)
	for deadline := time.Now().Add(5 * time.Second); runs.Load() != runs0+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s moved by %d with A's job running, want 1: the job is not on A's reader", obs.ServerReaderRuns, runs.Load()-runs0)
		}
	}
	short := submitID(b.do(solve))
	for i := 0; i < 25; i++ {
		time.Sleep(2 * time.Millisecond)
		if snap, _ := sys.Jobs.Status(job.JobID(short)); snap.State != job.Queued {
			t.Fatalf("B's job is %v while A's reader runs a job on a one-worker pool, want queued", snap.State)
		}
	}
	if _, err := sys.Jobs.Cancel(job.JobID(long)); err != nil {
		t.Fatal(err)
	}
	if resp := b.do(command.Wait{ID: short}); resp.Res == nil {
		t.Fatalf("wait on B's job: %+v", resp)
	}
	jobState(t, sys, long, job.Cancelled)
}

// TestHandOffServesBehindALongJob: an SOR solve of the 40×24 plate,
// submitted on an idle server, runs on its connection's reader for
// seconds.  A ping sent after the submit's reply still answers within a
// second, because the reader hands the socket to a successor; a cancel
// then ends the job cancelled, a second ping is served, and once the
// connection closes every goroutine it started is gone.
func TestHandOffServesBehindALongJob(t *testing.T) {
	sys := openSystem(t, core.Options{})
	srv := New(sys, Config{})
	dial := serveTCP(t, srv)
	base := runtime.NumGoroutine()

	p := dial()
	p.hello("eng", false)
	p.do(bigGrid)
	p.do(command.EndLoad{Model: "big", Set: "l", FY: -100})
	long := submitID(p.do(sorBig))
	start := time.Now()
	p.do(command.Ping{})
	if d := time.Since(start); d > time.Second {
		t.Errorf("ping behind the running job answered after %v, want under 1s", d)
	}
	if runs, handOffs := sys.Obs.Counter(obs.ServerReaderRuns).Load(), sys.Obs.Counter(obs.ServerHandOffs).Load(); runs != 1 || handOffs != 1 {
		t.Errorf("%s = %d, %s = %d, want 1 and 1", obs.ServerReaderRuns, runs, obs.ServerHandOffs, handOffs)
	}
	p.do(command.Cancel{ID: long})
	ids := p.send(command.Wait{ID: long})
	byID, _ := p.replies(ids)
	if e := byID[ids[0]].Error; e == nil || e.Code != wire.CodeCancelled {
		t.Errorf("wait on the cancelled job: %+v, want code %q", e, wire.CodeCancelled)
	}
	p.do(command.Ping{})

	p.nc.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after the connection closed, %d before it opened", runtime.NumGoroutine(), base)
		}
	}
}

// TestReaderRunsTraffic: on an idle server, 100 closed-loop submit+wait
// jobs each run on the connection's reader — 100 reader runs — so none
// ran on a worker.  Only a run that lasts handOff
// hands off, and only then can the wait behind it find its job still
// running and hand off at once too; otherwise the wait finds its job
// finished and the reader answers it.  So the hand-offs are at most two
// per job the client timed at handOff or longer (on a loaded host a few
// are).  A submit sent in one write with a ping behind it keeps today's
// placement: its job runs on the worker.
func TestReaderRunsTraffic(t *testing.T) {
	sys := openSystem(t, core.Options{})
	srv := New(sys, Config{})
	p := serveTCP(t, srv)()
	p.hello("eng", false)
	p.do(generate)
	p.do(command.EndLoad{Model: "g", Set: "l", FY: -100})
	solve := command.Submit{Cmd: command.Solve{Model: "g", Set: "l"}}

	runs, handOffs := sys.Obs.Counter(obs.ServerReaderRuns), sys.Obs.Counter(obs.ServerHandOffs)
	runs0, handOffs0 := runs.Load(), handOffs.Load()
	const jobs = 100
	slow := int64(0)
	for n := 0; n < jobs; n++ {
		start := time.Now()
		p.do(command.Wait{ID: submitID(p.do(solve))})
		if time.Since(start) >= handOff {
			slow++
		}
	}
	if got := runs.Load() - runs0; got != jobs {
		t.Errorf("%s moved by %d over %d jobs, want %d", obs.ServerReaderRuns, got, jobs, jobs)
	}
	if got := handOffs.Load() - handOffs0; got > 2*slow {
		t.Errorf("%s moved by %d, want at most %d: two for each of the %d jobs that took %v or longer",
			obs.ServerHandOffs, got, 2*slow, slow, handOff)
	}

	runs0 = runs.Load()
	ids := p.send(solve, command.Ping{})
	byID, _ := p.replies(ids)
	if byID[ids[1]].Error != nil {
		t.Fatalf("ping: %+v", byID[ids[1]].Error)
	}
	p.do(command.Wait{ID: submitID(byID[ids[0]])})
	if got := runs.Load() - runs0; got != 0 {
		t.Errorf("a submit pipelined with a ping ran on the reader (%s moved by %d), want the worker", obs.ServerReaderRuns, got)
	}
}

// readerRunStarted waits until the server has counted reader runs
// beyond from.
func readerRunStarted(t *testing.T, sys *core.System, from int64) {
	t.Helper()
	runs := sys.Obs.Counter(obs.ServerReaderRuns)
	for deadline := time.Now().Add(5 * time.Second); runs.Load() == from; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never moved past %d", obs.ServerReaderRuns, from)
		}
	}
}

// TestHandOffServesBehindASyncSolve: a synchronous SOR solve of the
// 40×24 plate, which iterates for seconds, runs on its connection's
// reader until the one-second request timeout ends it.  A ping sent once
// it started is answered within handOff (plus slack) and before the
// solve, because the reader hands the socket to a successor; a second
// synchronous solve sent meanwhile hands off at once, as the connection's
// first run is still going; the first solve answers with the cancelled code,
// and a solve sent after that reply runs on the reader again; and once
// the connection closes every goroutine it started is gone.
func TestHandOffServesBehindASyncSolve(t *testing.T) {
	sys := openSystem(t, core.Options{})
	srv := New(sys, Config{RequestTimeout: time.Second})
	dial := serveTCP(t, srv)
	base := runtime.NumGoroutine()
	p := dial()
	p.hello("eng", false)
	for _, cmd := range []command.Command{bigGrid, command.EndLoad{Model: "big", Set: "l", FY: -100},
		generate, command.EndLoad{Model: "g", Set: "l", FY: -100}} {
		p.do(cmd)
	}
	runs, handOffs := sys.Obs.Counter(obs.ServerReaderRuns), sys.Obs.Counter(obs.ServerHandOffs)
	runs0, handOffs0 := runs.Load(), handOffs.Load()

	long := p.send(command.Solve{Model: "big", Set: "l", Method: command.MethodSOR})[0]
	readerRunStarted(t, sys, runs0)
	start := time.Now()
	ping := p.send(command.Ping{})[0]
	if resp := p.next(); resp.ID != ping || resp.Error != nil {
		t.Fatalf("first reply behind the running solve: %+v, want the ping's (id %d)", resp, ping)
	}
	if d, limit := time.Since(start), handOff+300*time.Millisecond; d > limit {
		t.Errorf("ping behind the running solve answered after %v, want under %v", d, limit)
	}
	second := p.send(command.Solve{Model: "g", Set: "l"})[0]
	byID, arrival := p.replies([]uint64{second, long})
	if arrival[0] != second {
		t.Errorf("replies arrived in order %v, want the second solve (id %d) first", arrival, second)
	}
	if e := byID[second].Error; e != nil {
		t.Errorf("second solve: %+v", e)
	}
	if e := byID[long].Error; e == nil || e.Code != wire.CodeCancelled {
		t.Errorf("solve past the request timeout: %+v, want code %q", e, wire.CodeCancelled)
	}
	// The first run was over before its reply went out, so a solve sent
	// on that reply runs on the reader again.
	p.do(command.Solve{Model: "g", Set: "l"})
	if r, h := runs.Load()-runs0, handOffs.Load()-handOffs0; r != 2 || h != 2 {
		t.Errorf("%s moved by %d and %s by %d, want 2 and 2 (the first solve's, and the second solve's at once)",
			obs.ServerReaderRuns, r, obs.ServerHandOffs, h)
	}

	p.nc.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after the connection closed, %d before it opened", runtime.NumGoroutine(), base)
		}
	}
}

// TestSyncSolveReaderTraffic: 100 closed-loop synchronous solves of the
// 8×6 plate each run on the connection's reader — 100 timed runs, none
// handed off but those the client timed at handOff or longer — and each
// reply is the very frame a session's own solve encodes to.  A solve of a
// model a job holds hands off at once instead: on the reader it would
// wait in Hold.
func TestSyncSolveReaderTraffic(t *testing.T) {
	sys := openSystem(t, core.Options{})
	srv := New(sys, Config{})
	p := serveTCP(t, srv)()
	p.hello("eng", false)
	ref := sys.Session("ref")
	plate := command.GenerateGrid{Name: "g", NX: 8, NY: 6, W: 8, H: 6, ClampLeft: true}
	for _, cmd := range []command.Command{plate, command.EndLoad{Model: "g", Set: "l", FY: -100}} {
		p.do(cmd)
		if _, err := ref.Do(context.Background(), cmd); err != nil {
			t.Fatal(err)
		}
	}
	solve := command.Solve{Model: "g", Set: "l"}
	// The first solve factors the plate, which may outlast handOff under
	// the race detector; the counted ones re-solve.
	sameFrame(t, p.do(solve), ref, solve)
	runs, handOffs := sys.Obs.Counter(obs.ServerReaderRuns), sys.Obs.Counter(obs.ServerHandOffs)
	runs0, handOffs0 := runs.Load(), handOffs.Load()
	const solves = 100
	slow := int64(0)
	for n := 0; n < solves; n++ {
		start := time.Now()
		resp := p.do(solve)
		if time.Since(start) >= handOff {
			slow++
		}
		sameFrame(t, resp, ref, solve)
	}
	if got := runs.Load() - runs0; got != solves {
		t.Errorf("%s moved by %d over %d solves, want %d", obs.ServerReaderRuns, got, solves, solves)
	}
	if got := handOffs.Load() - handOffs0; got > slow {
		t.Errorf("%s moved by %d, want at most %d: the solves that took %v or longer", obs.ServerHandOffs, got, slow, handOff)
	}

	p.do(bigGrid)
	p.do(command.EndLoad{Model: "big", Set: "l", FY: -100})
	// The ping buffered behind the submit sends its job to a worker.
	ids := p.send(sorBig, command.Ping{})
	byID, _ := p.replies(ids)
	long := submitID(byID[ids[0]])
	jobState(t, sys, long, job.Running)
	runs0, handOffs0 = runs.Load(), handOffs.Load()
	held := p.send(command.Solve{Model: "big", Set: "l"})[0]
	// The cancel goes out once the reader has placed the solve, so it is
	// not buffered behind it.
	for deadline := time.Now().Add(5 * time.Second); runs.Load() == runs0 && handOffs.Load() == handOffs0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader never placed the solve")
		}
	}
	cancel := p.send(command.Cancel{ID: long})[0]
	byID, _ = p.replies([]uint64{held, cancel})
	if e := byID[held].Error; e != nil {
		t.Errorf("solve after the job holding its model was cancelled: %+v", e)
	}
	if r, h := runs.Load()-runs0, handOffs.Load()-handOffs0; r != 0 || h != 1 {
		t.Errorf("a solve of a held model moved %s by %d and %s by %d, want 0 and 1", obs.ServerReaderRuns, r, obs.ServerHandOffs, h)
	}
}

// TestHangUpCancelsASyncSolve: a client that closes its connection while
// a synchronous SOR solve runs on the reader (seconds of iteration, no
// request timeout) has the solve cancelled within about handOff: the
// successor reader finds the hang-up, teardown cancels the connection's
// context, which the solver polls, and the connection is gone with its
// model released.
func TestHangUpCancelsASyncSolve(t *testing.T) {
	sys := openSystem(t, core.Options{})
	srv := New(sys, Config{})
	p := serveTCP(t, srv)()
	p.hello("eng", false)
	p.do(bigGrid)
	p.do(command.EndLoad{Model: "big", Set: "l", FY: -100})
	_, sess := connOf(t, srv)
	conns := sys.Obs.Gauge(obs.ServerConnections)
	runs0 := sys.Obs.Counter(obs.ServerReaderRuns).Load()
	p.send(command.Solve{Model: "big", Set: "l", Method: command.MethodSOR})
	readerRunStarted(t, sys, runs0)
	for deadline := time.Now().Add(5 * time.Second); !sys.Jobs.Held(sess.User, "big"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the running solve never held its model")
		}
	}
	start := time.Now()
	p.nc.Close()
	limit := handOff + time.Second
	for conns.Load() != 0 {
		if time.Since(start) > limit {
			t.Fatalf("the connection is still open %v after the client hung up mid-solve", limit)
		}
		time.Sleep(time.Millisecond)
	}
	if sys.Jobs.Held(sess.User, "big") {
		t.Error("the solve's model is still held after its connection closed")
	}
}
