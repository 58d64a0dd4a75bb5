package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/auvm"
	"repro/internal/command"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/request_placement.golden")

// tcpPeer is the client end of a loopback connection, speaking raw
// frames: it can put several requests on the wire in one write, which a
// net.Pipe (no buffer) cannot, and half-close.
type tcpPeer struct {
	t  *testing.T
	nc *net.TCPConn
	br *bufio.Reader
	id uint64
}

// serveTCP starts srv on a loopback listener and returns a dialer.
func serveTCP(t *testing.T, srv *Server) func() *tcpPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	return func() *tcpPeer {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(60 * time.Second))
		return &tcpPeer{t: t, nc: nc.(*net.TCPConn), br: bufio.NewReader(nc)}
	}
}

// send writes the commands back-to-back — one write(2), so the server's
// reader finds them all in its buffer — and returns their request ids.
func (p *tcpPeer) send(cmds ...command.Command) []uint64 {
	p.t.Helper()
	var buf bytes.Buffer
	ids := make([]uint64, len(cmds))
	for i, cmd := range cmds {
		data, err := command.MarshalCommand(cmd)
		if err != nil {
			p.t.Fatal(err)
		}
		p.id++
		ids[i] = p.id
		if err := wire.EncodeRequest(&buf, &wire.Request{ID: p.id, Command: data}); err != nil {
			p.t.Fatal(err)
		}
	}
	if _, err := p.nc.Write(buf.Bytes()); err != nil {
		p.t.Fatalf("send: %v", err)
	}
	return ids
}

// hello opens the connection with the handshake as user, subscribed to
// its jobs' notifications when notify is set.
func (p *tcpPeer) hello(user string, notify bool) {
	p.t.Helper()
	p.id++
	hello := &wire.Hello{User: user, Proto: command.ProtocolVersion, Notify: notify}
	if err := wire.EncodeRequest(p.nc, &wire.Request{ID: p.id, Hello: hello}); err != nil {
		p.t.Fatalf("send: %v", err)
	}
	if resp := p.next(); resp.ID != p.id || resp.Welcome == nil {
		p.t.Fatalf("hello answered %+v", resp)
	}
}

// next reads one frame.
func (p *tcpPeer) next() *wire.Response {
	p.t.Helper()
	resp, err := wire.DecodeResponse(p.br)
	if err != nil {
		p.t.Fatalf("receive: %v", err)
	}
	return resp
}

// replies reads frames until it has the reply to each of ids, and
// returns them keyed by id with the order they arrived in.
func (p *tcpPeer) replies(ids []uint64) (byID map[uint64]*wire.Response, arrival []uint64) {
	p.t.Helper()
	byID = map[uint64]*wire.Response{}
	for len(byID) < len(ids) {
		resp := p.next()
		if resp.Event != nil {
			continue
		}
		byID[resp.ID] = resp
		arrival = append(arrival, resp.ID)
	}
	return byID, arrival
}

// do is one closed-loop request; it fails the test on an error reply.
func (p *tcpPeer) do(cmd command.Command) *wire.Response {
	p.t.Helper()
	ids := p.send(cmd)
	byID, _ := p.replies(ids)
	resp := byID[ids[0]]
	if resp == nil || resp.Error != nil {
		p.t.Fatalf("%v: %+v", cmd, resp)
	}
	return resp
}

// TestRunsBesideGolden pins the one rule for where a request runs
// (conn.place) over every wire verb — alone and wrapped in submit, on a
// server with a per-connection quota — and, for solve and wait, over
// every state that decides it, against a golden table.  The verb list is
// the first column of the command package's verb_sets.golden, so a new
// verb fails here until it has a row.
func TestRunsBesideGolden(t *testing.T) {
	raw, err := os.ReadFile("../command/testdata/verb_sets.golden")
	if err != nil {
		t.Fatal(err)
	}
	bounded := &conn{srv: New(openSystem(t, core.Options{}), Config{MaxJobsPerSession: 2}), br: idleReader()}
	place := func(c *conn, cmd command.Command) string {
		if c.place(cmd) == handedRun {
			return "beside"
		}
		return "reader"
	}
	var b strings.Builder
	b.WriteString("# Where each wire verb's request executes (conn.place): on the connection's reader, in\n" +
		"# arrival order, or beside what follows it, on a reader that hands the socket off at once.\n" +
		"# \"-\" marks a verb that cannot run under submit.\n" +
		"# columns: the verb itself / submit of it\n")
	verbs := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		verb := strings.Fields(line)[0]
		verbs++
		switch verb {
		case "submit":
			// submit decodes only with a command inside; the columns for
			// the other verbs are its rows.
			fmt.Fprintf(&b, "%-14s see the submit columns\n", verb)
			continue
		case "wait":
			// Where a wait runs depends on its job; the rows below.
			fmt.Fprintf(&b, "%-14s see the wait rows\n", verb)
			continue
		}
		cmd, err := command.UnmarshalCommand([]byte(fmt.Sprintf(`{"verb":%q}`, verb)))
		if err != nil {
			t.Fatalf("%s: %v", verb, err)
		}
		wrapped := "-"
		if command.Submittable(cmd) == nil {
			wrapped = place(bounded, command.Submit{Cmd: cmd})
			if ptr := place(bounded, &command.Submit{Cmd: cmd}); ptr != wrapped {
				t.Errorf("submit %s: pointer spelling runs %s, value spelling %s", verb, ptr, wrapped)
			}
		}
		fmt.Fprintf(&b, "%-14s %-6s %s\n", verb, place(bounded, cmd), wrapped)
	}
	if verbs != 32 {
		t.Errorf("verb_sets.golden lists %d verbs, want 32", verbs)
	}
	b.WriteString("# a synchronous solve, by what the reader finds when it decodes the request: on the\n" +
		"# reader, as a run the hand-off timer bounds, unless it could keep something waiting.\n")
	for _, sc := range solveCases(t) {
		fmt.Fprintf(&b, "solve, %-35s %s\n", sc.what, place(sc.c, sc.solve))
	}
	fmt.Fprintf(&b, "solve, %-35s %s\n", "a blocked wait still going", solveBehindABlockedWait(t))
	b.WriteString("# wait, by what its session's scheduler knows of the job when the reader decodes the\n" +
		"# request (job.Scheduler.Settled): a wait that would return at once runs on the reader.\n")
	for _, w := range waitCases(t) {
		c := &conn{srv: bounded.srv, sess: w.sess, br: idleReader()}
		got := place(c, command.Wait{ID: w.id})
		if ptr := place(c, &command.Wait{ID: w.id}); ptr != got {
			t.Errorf("wait, %s: pointer spelling runs %s, value spelling %s", w.what, ptr, got)
		}
		fmt.Fprintf(&b, "wait, %-36s %s\n", w.what, got)
	}
	b.WriteString("# where a submitted heavy job runs, by what the reader finds once the submit's reply is\n" +
		"# flushed (conn.place, job.Own.Take): on the reader, or on a pool worker woken for it.\n")
	for _, o := range ownCases(t) {
		fmt.Fprintf(&b, "submit solve, %-31s %s\n", o.what, o.where)
	}
	const golden = "testdata/request_placement.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("request placement drifted from %s (run with -update after checking):\n%s", golden, b.String())
	}
}

// idleReader is the buffer of a connection with nothing buffered.
func idleReader() *bufio.Reader { return bufio.NewReader(strings.NewReader("")) }

// solveCase is a synchronous solve on a connection in one state.
type solveCase struct {
	what  string
	c     *conn
	solve command.Solve
}

// solveCases builds a connection in every state that decides where a
// synchronous solve runs: idle, a request buffered behind the solve, its
// model held by a running job, and a reader run of the connection still
// going after a hand-off.
func solveCases(t *testing.T) []solveCase {
	t.Helper()
	ctx := context.Background()
	sys := openSystem(t, core.Options{})
	sess := sys.Session("eng")
	for _, cmd := range []command.Command{generate, command.EndLoad{Model: "g", Set: "l", FY: -100},
		bigGrid, command.EndLoad{Model: "big", Set: "l", FY: -100}} {
		if _, err := sess.Do(ctx, cmd); err != nil {
			t.Fatal(err)
		}
	}
	idle := &conn{sess: sess, br: idleReader()}
	buffered := &conn{sess: sess, br: bufio.NewReader(strings.NewReader("the next request"))}
	if _, err := buffered.br.Peek(1); err != nil {
		t.Fatal(err)
	}
	handed := &conn{sess: sess, br: idleReader()}
	handed.handedRuns.Store(1)
	// SOR on the 40×24 plate iterates for seconds; the system's Close
	// cancels it.
	id, err := sess.SubmitAsync(ctx, command.Solve{Model: "big", Set: "l", Method: command.MethodSOR})
	if err != nil {
		t.Fatal(err)
	}
	jobState(t, sys, int64(id), job.Running)
	g, big := command.Solve{Model: "g", Set: "l"}, command.Solve{Model: "big", Set: "l"}
	return []solveCase{
		{"on an idle connection", idle, g},
		{"a request buffered behind it", buffered, g},
		{"its model held by a job", idle, big},
		{"a handed-off run still going", handed, g},
	}
}

// waitCase is a wait on a session whose scheduler holds its job in one
// known state.
type waitCase struct {
	what string
	sess *auvm.Session
	id   int64
}

// waitCases builds a job in every state a wait can find: queued, running
// and the three terminal states in memory, evicted to a file journal,
// evicted from a memory store (forgotten), and not yet issued — plus a
// session with no scheduler at all.
func waitCases(t *testing.T) []waitCase {
	t.Helper()
	ctx := context.Background()
	sys := openSystem(t, core.Options{Store: store.Config{Backend: store.BackendFile, Path: filepath.Join(t.TempDir(), "fem2.db")}})
	mem := openSystem(t, core.Options{})
	var cases []waitCase
	for _, s := range []*core.System{sys, mem} {
		sess := s.Session("eng")
		for _, cmd := range []command.Command{generate, command.EndLoad{Model: "g", Set: "l", FY: -100}} {
			if _, err := sess.Do(ctx, cmd); err != nil {
				t.Fatal(err)
			}
		}
		solved := func() int64 {
			id, err := sess.SubmitAsync(ctx, command.Solve{Model: "g", Set: "l"})
			if err == nil {
				_, err = s.Jobs.Wait(ctx, id)
			}
			if err != nil {
				t.Fatal(err)
			}
			return int64(id)
		}
		// Retention 1 evicts the first job as the second is submitted.
		evicted := solved()
		s.Jobs.SetRetention(1)
		solved()
		s.Jobs.SetRetention(0)
		what := "evicted (file store: journal)"
		if s == mem {
			what = "evicted (memory store: forgotten)"
		}
		cases = append(cases, waitCase{what, sess, evicted})
	}
	sess := sys.Session("eng")
	for _, cmd := range []command.Command{
		command.GenerateGrid{Name: "big", NX: 40, NY: 24, W: 40, H: 24, ClampLeft: true},
		command.EndLoad{Model: "big", Set: "l", FY: -100},
	} {
		if _, err := sess.Do(ctx, cmd); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(cmd command.Command) int64 {
		id, err := sess.SubmitAsync(ctx, cmd)
		if err != nil {
			t.Fatal(err)
		}
		return int64(id)
	}
	finished := func(cmd command.Command) int64 {
		id := submit(cmd)
		_, _ = sys.Jobs.Wait(ctx, job.JobID(id)) // the states are checked below
		return id
	}
	done := finished(command.Solve{Model: "g", Set: "l"})
	failed := finished(command.Solve{Model: "nope", Set: "l"})
	// SOR on the 40×24 plate iterates for seconds (the system's Close
	// cancels it), and the one worker leaves everything behind it queued.
	running := submit(command.Solve{Model: "big", Set: "l", Method: command.MethodSOR})
	for {
		snap, err := sys.Jobs.Status(job.JobID(running))
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == job.Running {
			break
		}
		time.Sleep(time.Millisecond)
	}
	queued := submit(command.Solve{Model: "big", Set: "l"})
	cancelled := submit(command.Solve{Model: "big", Set: "l"})
	if _, err := sys.Jobs.Cancel(job.JobID(cancelled)); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int64]job.State{done: job.Done, failed: job.Failed, running: job.Running,
		queued: job.Queued, cancelled: job.Cancelled} {
		if snap, err := sys.Jobs.Status(job.JobID(id)); err != nil || snap.State != want {
			t.Fatalf("job-%d: %v %v, want %v", id, snap.State, err, want)
		}
	}
	return append(cases,
		waitCase{"job queued", sess, queued},
		waitCase{"job running", sess, running},
		waitCase{"job done", sess, done},
		waitCase{"job failed", sess, failed},
		waitCase{"job cancelled", sess, cancelled},
		waitCase{"id not issued yet", sess, cancelled + 1},
		waitCase{"session with no scheduler", auvm.NewSession("eng", nil), done},
	)
}

// solveBehindABlockedWait reports where a synchronous solve sent alone
// runs while a wait on a running job, sent alone before it, is blocked:
// "reader" when it is a timed run, "beside" when it is handed off at once
// — as it is, since the wait is a run that handed off at once.
func solveBehindABlockedWait(t *testing.T) string {
	t.Helper()
	sys := openSystem(t, core.Options{})
	p := serveTCP(t, New(sys, Config{}))()
	p.hello("eng", false)
	for _, cmd := range []command.Command{bigGrid, command.EndLoad{Model: "big", Set: "l", FY: -100},
		generate, command.EndLoad{Model: "g", Set: "l", FY: -100}} {
		p.do(cmd)
	}
	// The ping buffered behind the submit sends its job to a worker.
	ids := p.send(sorBig, command.Ping{})
	byID, _ := p.replies(ids)
	long := submitID(byID[ids[0]])
	jobState(t, sys, long, job.Running)
	runs, handOffs := sys.Obs.Counter(obs.ServerReaderRuns), sys.Obs.Counter(obs.ServerHandOffs)
	runs0, handOffs0 := runs.Load(), handOffs.Load()
	wait := p.send(command.Wait{ID: long})[0]
	for deadline := time.Now().Add(5 * time.Second); handOffs.Load() == handOffs0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the wait on the running job never handed the socket off")
		}
	}
	p.do(command.Solve{Model: "g", Set: "l"})
	where := "reader"
	if r, h := runs.Load()-runs0, handOffs.Load()-handOffs0; r == 0 && h == 2 {
		where = "beside"
	} else if r != 1 || h != 1 {
		t.Errorf("the wait and the solve moved %s by %d and %s by %d", obs.ServerReaderRuns, r, obs.ServerHandOffs, h)
	}
	cancel := p.send(command.Cancel{ID: long})[0]
	p.replies([]uint64{wait, cancel})
	return where
}

// ownCase is where a submitted solve's job ran in one state of the
// connection and the scheduler.
type ownCase struct{ what, where string }

// ownCases submits a solve as the reader does, under its WithOwn context
// when place lets it, in each state that decides where the job runs: an
// idle server, a request buffered behind the submit, a reader run of the
// connection still going after a hand-off, the solve's model held,
// another job queued, and a job executing on the pool's one worker.
func ownCases(t *testing.T) []ownCase {
	t.Helper()
	ctx := context.Background()
	sys := openSystem(t, core.Options{})
	sess := sys.Session("eng")
	solve := func(model string) command.Solve { return command.Solve{Model: model, Set: "l"} }
	do := func(cmd command.Command) command.Result {
		t.Helper()
		res, err := sess.Do(ctx, cmd)
		if err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
		return res
	}
	for _, cmd := range []command.Command{
		generate, command.EndLoad{Model: "g", Set: "l", FY: -100},
		command.GenerateGrid{Name: "h", NX: 4, NY: 2, W: 4, H: 2, ClampLeft: true},
		command.EndLoad{Model: "h", Set: "l", FY: -100},
		bigGrid, command.EndLoad{Model: "big", Set: "l", FY: -100},
	} {
		do(cmd)
	}
	// One job on g before the cases, submitted once g is loaded.
	do(command.Wait{ID: do(command.Submit{Cmd: solve("g")}).(*command.SubmitResult).ID})
	srv := &Server{}
	reader := &conn{srv: srv, br: idleReader()}
	buffered := &conn{srv: srv, br: bufio.NewReader(strings.NewReader("the next request"))}
	if _, err := buffered.br.Peek(1); err != nil {
		t.Fatal(err)
	}
	handed := &conn{srv: srv, br: idleReader()}
	handed.handedRuns.Store(1)
	// place submits a solve of g as c's reader would and reports where
	// its job ran.  A worker picks its next job as its last one ends, so
	// none takes this one before Take decides: the jobs before it have
	// ended, or run for seconds.
	place := func(c *conn) (where string, id int64) {
		t.Helper()
		sub := command.Submit{Cmd: solve("g")}
		if c.place(sub) != inLineOwned {
			return "worker", do(sub).(*command.SubmitResult).ID
		}
		var own job.Own
		res, err := sess.Do(job.WithOwn(ctx, &own), sub)
		if err != nil {
			t.Fatal(err)
		}
		if !own.Take() {
			return "worker", res.(*command.SubmitResult).ID
		}
		own.Run()
		return "reader", res.(*command.SubmitResult).ID
	}
	var cases []ownCase
	record := func(what, where string, ids ...int64) {
		for _, id := range ids {
			if _, err := sys.Jobs.Wait(ctx, job.JobID(id)); err != nil && !errors.Is(err, errs.ErrCancelled) {
				t.Fatalf("%s: job-%d: %v", what, id, err)
			}
		}
		cases = append(cases, ownCase{what, where})
	}

	where, id := place(reader)
	record("on an idle server", where, id)
	where, id = place(buffered)
	record("a request buffered behind it", where, id)
	where, id = place(handed)
	record("a handed-off run still going", where, id)

	if err := sys.Jobs.Hold(ctx, sess.User, "g", solve("g")); err != nil {
		t.Fatal(err)
	}
	where, id = place(reader)
	sys.Jobs.Release(sess.User, "g")
	record("its model held", where, id)

	if err := sys.Jobs.Hold(ctx, sess.User, "h", solve("h")); err != nil {
		t.Fatal(err)
	}
	queued := do(command.Submit{Cmd: solve("h")}).(*command.SubmitResult).ID
	where, id = place(reader)
	sys.Jobs.Release(sess.User, "h")
	record("another job queued", where, id, queued)

	long := do(command.Submit{Cmd: command.Solve{Model: "big", Set: "l", Method: command.MethodSOR}}).(*command.SubmitResult).ID
	jobState(t, sys, long, job.Running)
	where, id = place(reader)
	if _, err := sys.Jobs.Cancel(job.JobID(long)); err != nil {
		t.Fatal(err)
	}
	record("a job executing", where, id, long)
	return cases
}

// TestSettledWaitRunsOnTheReader: 200 closed-loop submit+wait jobs on a
// subscribed connection, each wait sent only after its job's done event
// arrived.  Every wait finds its job settled, so the reader answers it
// and none hands the socket off (with placement by verb, all 200 ran
// beside the reader).  The submits wrap a solve, which the scheduler
// queues and answers at once, so they run on the reader too; a job the
// reader runs itself is handed off only if it lasts handOff, so the
// hand-offs are at most the jobs that took that long from submit to
// wait reply.
func TestSettledWaitRunsOnTheReader(t *testing.T) {
	sys := openSystem(t, core.Options{})
	srv := New(sys, Config{})
	p := serveTCP(t, srv)()
	p.hello("eng", true)
	p.do(generate)
	p.do(command.EndLoad{Model: "g", Set: "l", FY: -100})
	handOffs := sys.Obs.Counter(obs.ServerHandOffs)
	before, slow := handOffs.Load(), int64(0)
	for n := 0; n < 200; n++ {
		start := time.Now()
		sub := p.send(command.Submit{Cmd: command.Solve{Model: "g", Set: "l"}})[0]
		var jobID int64
		for answered, done := false, false; !answered || !done; {
			resp := p.next()
			switch {
			case resp.ID == sub:
				answered = true
			case resp.Event != nil && resp.Event.State == "done":
				jobID, done = resp.Event.Job, true
			}
		}
		if wait := p.do(command.Wait{ID: jobID}); wait.Res == nil {
			t.Fatalf("job %d: wait answered %+v", n, wait)
		}
		if time.Since(start) >= handOff {
			slow++
		}
	}
	if got := handOffs.Load() - before; got > slow {
		t.Errorf("%s moved by %d over 200 jobs, %d of which took %v or longer: a wait on a finished job handed the socket off",
			obs.ServerHandOffs, got, slow, handOff)
	}
}

// TestBlockedWaitRunsBeside: a wait on a running job runs beside the
// reader, handing the socket off at once.  With an SOR solve running on
// the worker until it is cancelled, a wait, a ping and a status of the
// job sent in one write answer ping and status first, and the one
// hand-off is the wait's; the cancel then ends the job, and the wait
// answers with its cancellation.
func TestBlockedWaitRunsBeside(t *testing.T) {
	sys := openSystem(t, core.Options{})
	p := serveTCP(t, New(sys, Config{}))()
	p.hello("eng", true)
	p.do(command.GenerateGrid{Name: "big", NX: 40, NY: 24, W: 40, H: 24, ClampLeft: true})
	p.do(command.EndLoad{Model: "big", Set: "l", FY: -100})
	// The ping buffered behind the submit sends its job to a worker.
	sent := p.send(command.Submit{Cmd: command.Solve{Model: "big", Set: "l", Method: command.MethodSOR}}, command.Ping{})
	var jobID int64
	for answered := 0; jobID == 0 || answered < len(sent); {
		resp := p.next()
		if resp.Event != nil && resp.Event.State == "running" {
			jobID = resp.Event.Job
		}
		if resp.ID == sent[0] || resp.ID == sent[1] {
			answered++
		}
	}
	handOffs := sys.Obs.Counter(obs.ServerHandOffs)
	before := handOffs.Load()
	ids := p.send(command.Wait{ID: jobID}, command.Ping{}, command.Status{ID: jobID})
	byID, arrival := p.replies(ids[1:])
	if fmt.Sprint(arrival) != fmt.Sprint(ids[1:]) {
		t.Errorf("replies arrived in order %v, want ping and status (%v) first", arrival, ids[1:])
	}
	if e := byID[ids[1]].Error; e != nil {
		t.Errorf("ping behind the blocked wait: %+v", e)
	}
	if res, ok := byID[ids[2]].Res.(*command.JobStatusResult); !ok || res.State != command.JobRunning {
		t.Errorf("status behind the blocked wait: %+v, want job-%d running", byID[ids[2]], jobID)
	}
	if got := handOffs.Load() - before; got != 1 {
		t.Errorf("%s moved by %d, want 1: the wait's", obs.ServerHandOffs, got)
	}
	cancel := p.send(command.Cancel{ID: jobID})[0]
	byID, _ = p.replies([]uint64{ids[0], cancel})
	if e := byID[ids[0]].Error; e == nil || e.Code != wire.CodeCancelled {
		t.Errorf("wait on the cancelled job: %+v, want code %q", e, wire.CodeCancelled)
	}
}

// TestSettledWaitRepliesMatchTheSession: a wait the reader answers
// because its job is not in memory — an id the scheduler issued and then
// forgot (memory store, retention 1: not found), one it evicted to a file
// journal (retention 1: answered from there), an id not issued yet (not
// found, beside), and a session with no scheduler — writes the very frame
// the session's own answer encodes to, byte for byte.
func TestSettledWaitRepliesMatchTheSession(t *testing.T) {
	file := openSystem(t, core.Options{Store: store.Config{Backend: store.BackendFile, Path: filepath.Join(t.TempDir(), "fem2.db")}})
	for _, c := range []struct {
		name string
		sys  *core.System
		// placed is how many of the two waits hand the socket off.
		placed int64
	}{
		{"memory store", openSystem(t, core.Options{}), 1},
		{"file store", file, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := New(c.sys, Config{})
			p := serveTCP(t, srv)()
			p.hello("eng", false)
			p.do(generate)
			p.do(command.EndLoad{Model: "g", Set: "l", FY: -100})
			jobs := make([]int64, 2)
			for i := range jobs {
				// The ping buffered behind the submit sends its job to a
				// worker, so no run of the reader hands off below.
				ids := p.send(command.Submit{Cmd: command.Solve{Model: "g", Set: "l"}}, command.Ping{})
				byID, _ := p.replies(ids)
				jobs[i] = submitID(byID[ids[0]])
				p.do(command.Wait{ID: jobs[i]})
				c.sys.Jobs.SetRetention(1) // the second submit evicts the first job
			}
			ref := c.sys.Session("ref")
			handOffs := c.sys.Obs.Counter(obs.ServerHandOffs)
			before := handOffs.Load()
			for _, id := range []int64{jobs[0], jobs[1] + 100} {
				ids := p.send(command.Wait{ID: id})
				byID, _ := p.replies(ids)
				sameFrame(t, byID[ids[0]], ref, command.Wait{ID: id})
			}
			if got := handOffs.Load() - before; got != c.placed {
				t.Errorf("%d waits handed the socket off, want %d (the id not issued yet)", got, c.placed)
			}
		})
	}
	t.Run("no scheduler", func(t *testing.T) {
		srv := New(openSystem(t, core.Options{}), Config{})
		p := serveTCP(t, srv)()
		p.hello("eng", false)
		c, sess := connOf(t, srv)
		c.mu.Lock()
		sess.Jobs = nil
		c.mu.Unlock()
		handOffs := srv.sys.Obs.Counter(obs.ServerHandOffs)
		before := handOffs.Load()
		ids := p.send(command.Wait{ID: 1})
		byID, _ := p.replies(ids)
		sameFrame(t, byID[ids[0]], auvm.NewSession("ref", nil), command.Wait{ID: 1})
		if got := handOffs.Load() - before; got != 0 {
			t.Errorf("%d waits handed the socket off, want 0", got)
		}
	})
}

// sameFrame fails the test unless got encodes to the frame of ref's own
// answer to cmd, as the reader would write it.
func sameFrame(t *testing.T, got *wire.Response, ref *auvm.Session, cmd command.Command) {
	t.Helper()
	res, err := ref.Do(context.Background(), cmd)
	want := &wire.Response{ID: got.ID, Res: res}
	if err != nil {
		want.Error = wireError(err)
	}
	wantFrame, err := wire.AppendResponse(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	gotFrame, err := wire.AppendResponse(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFrame, wantFrame) {
		t.Errorf("%v:\n got %q\nwant %q", cmd, gotFrame, wantFrame)
	}
}

// TestWaitRacingItsJobsFinish: a wait sent the moment the submit is
// answered finds its job queued, running or just finished — its job's
// finish lands on either side of the reader's Settled check — and is
// answered with exactly the job's result every time.
func TestWaitRacingItsJobsFinish(t *testing.T) {
	sys := openSystem(t, core.Options{})
	srv := New(sys, Config{})
	p := serveTCP(t, srv)()
	p.hello("eng", false)
	p.do(generate)
	p.do(command.EndLoad{Model: "g", Set: "l", FY: -100})
	handOffs := sys.Obs.Counter(obs.ServerHandOffs)
	before := handOffs.Load()
	reps := 200
	if testing.Short() {
		reps = 20
	}
	for rep := 0; rep < reps; rep++ {
		id := p.do(command.Submit{Cmd: command.Solve{Model: "g", Set: "l"}}).Res.(*command.SubmitResult).ID
		got := p.do(command.Wait{ID: id})
		snap, err := sys.Jobs.Status(job.JobID(id))
		if err != nil {
			t.Fatal(err)
		}
		want, err := command.MarshalResult(snap.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Result, want) {
			t.Fatalf("repetition %d, wait job-%d:\n got %s\nwant %s", rep, id, got.Result, want)
		}
	}
	t.Logf("%d hand-offs over %d jobs: waits that found their job still queued or running, and jobs run on the reader for %v or longer",
		handOffs.Load()-before, reps, handOff)
}

// TestInlineRequestsExecuteInArrivalOrder pipelines two model builds
// that differ only in the session material set just before each —
// material E1, generate g, material E2, generate h — and then solves
// both.  g must have been built with E1 and h with E2, every time: the
// four requests run on the reader, in the order they were sent.  (With a
// goroutine per request the four raced.)
func TestInlineRequestsExecuteInArrivalOrder(t *testing.T) {
	sys := openSystem(t, core.Options{})
	p := serveTCP(t, New(sys, Config{}))()
	ref := sys.Session("ref")
	reps := 200
	if testing.Short() {
		reps = 20
	}
	for rep := 0; rep < reps; rep++ {
		script := []command.Command{
			command.SetMaterial{E: 1e6 + float64(rep), Nu: 0.3, T: 1},
			command.GenerateGrid{Name: "g", NX: 4, NY: 2, W: 4, H: 2, ClampLeft: true},
			command.EndLoad{Model: "g", Set: "l", FY: -100},
			command.SetMaterial{E: 3e6 + float64(rep), Nu: 0.3, T: 1},
			command.GenerateGrid{Name: "h", NX: 4, NY: 2, W: 4, H: 2, ClampLeft: true},
			command.EndLoad{Model: "h", Set: "l", FY: -100},
			command.Solve{Model: "g", Set: "l"},
			command.Solve{Model: "h", Set: "l"},
		}
		ids := p.send(script...)
		byID, _ := p.replies(ids)
		for i, cmd := range script {
			want, err := ref.Do(context.Background(), cmd)
			if err != nil {
				t.Fatalf("reference %v: %v", cmd, err)
			}
			wantRaw, err := command.MarshalResult(want)
			if err != nil {
				t.Fatal(err)
			}
			got := byID[ids[i]]
			if got.Error != nil || !bytes.Equal(got.Result, wantRaw) {
				t.Fatalf("repetition %d, %v:\n got %s %+v\nwant %s", rep, cmd, got.Result, got.Error, wantRaw)
			}
		}
	}
}

// TestControlVerbsOvertakeARunningSolve: a ping and a cancel pipelined
// behind a synchronous solve that runs for milliseconds both answer
// before it does — with requests buffered behind it, the solve hands the
// socket off at once.  The three frames go out in one write; should they
// reach the reader apart, the solve would be a timed run, and the
// placement check fails before the order of the replies is read.
func TestControlVerbsOvertakeARunningSolve(t *testing.T) {
	sys := openSystem(t, core.Options{})
	p := serveTCP(t, New(sys, Config{}))()
	p.do(command.GenerateGrid{Name: "big", NX: 48, NY: 48, W: 48, H: 48, ClampLeft: true})
	p.do(command.EndLoad{Model: "big", Set: "l", FY: -100})
	runs, handOffs := sys.Obs.Counter(obs.ServerReaderRuns), sys.Obs.Counter(obs.ServerHandOffs)
	runs0, handOffs0 := runs.Load(), handOffs.Load()
	ids := p.send(command.Solve{Model: "big", Set: "l"}, command.Ping{}, command.Cancel{ID: 999})
	byID, arrival := p.replies(ids)
	if r, h := runs.Load()-runs0, handOffs.Load()-handOffs0; r != 0 || h != 1 {
		t.Fatalf("%s moved by %d and %s by %d, want 0 and 1 (the solve, at once): the three frames did not arrive together",
			obs.ServerReaderRuns, r, obs.ServerHandOffs, h)
	}
	if arrival[2] != ids[0] {
		t.Errorf("replies arrived in order %v, want the solve (id %d) last", arrival, ids[0])
	}
	if byID[ids[0]].Error != nil || byID[ids[1]].Error != nil {
		t.Errorf("solve: %+v, ping: %+v", byID[ids[0]].Error, byID[ids[1]].Error)
	}
	if e := byID[ids[2]].Error; e == nil || e.Code != wire.CodeNotFound {
		t.Errorf("cancel of an unknown job: %+v, want code %q", e, wire.CodeNotFound)
	}
}

// TestPingAnswersBehindARefusedEdit: with a submitted solve running, an
// edit of its model, a ping and a status pipelined in one write are all
// answered by the reader, in order, while the solve runs on — the edit
// with an ordinary error naming the job (the internal code: no wire code
// of its own), never by waiting for the model on the reader.
func TestPingAnswersBehindARefusedEdit(t *testing.T) {
	p := serveTCP(t, New(openSystem(t, core.Options{}), Config{}))()
	p.hello("eng", true)
	p.do(command.GenerateGrid{Name: "big", NX: 40, NY: 24, W: 40, H: 24, ClampLeft: true})
	p.do(command.EndLoad{Model: "big", Set: "l", FY: -100})
	// SOR on this plate iterates for seconds; the cancel below ends it.
	sub := p.send(command.Submit{Cmd: command.Solve{Model: "big", Set: "l", Method: command.MethodSOR}})[0]
	var jobID int64
	for answered := false; jobID == 0 || !answered; {
		resp := p.next()
		if resp.Event != nil && resp.Event.State == "running" {
			jobID = resp.Event.Job
		}
		answered = answered || resp.ID == sub
	}
	ids := p.send(command.AddNode{Model: "big", X: 1, Y: 1}, command.Ping{}, command.Status{ID: jobID})
	byID, arrival := p.replies(ids)
	if fmt.Sprint(arrival) != fmt.Sprint(ids) {
		t.Errorf("replies arrived in order %v, want %v", arrival, ids)
	}
	want := fmt.Sprintf(`job: model "big" is busy (job-%d running): wait for it, or submit the edit`, jobID)
	if e := byID[ids[0]].Error; e == nil || e.Code != wire.CodeInternal || e.Message != want {
		t.Errorf("node on the held model: %+v, want code %q and %q", e, wire.CodeInternal, want)
	}
	if e := byID[ids[1]].Error; e != nil {
		t.Errorf("ping behind the refused edit: %+v", e)
	}
	res, err := command.UnmarshalResult(byID[ids[2]].Result)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.(*command.JobStatusResult).State; st != command.JobRunning {
		t.Errorf("job-%d is %s after the ping answered, want it still running", jobID, st)
	}
	p.do(command.Cancel{ID: jobID})
}

// TestFrameOrderPerJob pins, frame by frame, what a closed-loop
// submit+wait job puts on the wire: five frames, of which the queued
// event is the first (it was raised before the submit reply existed, so
// the reply's write carries it out ahead of itself), running comes
// before done, and the wait reply is the last (done was raised before
// Wait returned).  The submit reply sits anywhere after queued: the
// worker may start, or finish, the job before the reader has written
// it.
func TestFrameOrderPerJob(t *testing.T) {
	p := serveTCP(t, New(openSystem(t, core.Options{}), Config{}))()
	p.hello("eng", true)
	p.do(generate)
	p.do(command.EndLoad{Model: "g", Set: "l", FY: -100})
	jobs := 1000
	if testing.Short() {
		jobs = 100
	}
	for n := 0; n < jobs; n++ {
		var frames []string
		var jobID int64
		read := func(until uint64) {
			for {
				resp := p.next()
				switch {
				case resp.Event != nil:
					frames = append(frames, resp.Event.State)
					if jobID != 0 && resp.Event.Job != jobID {
						t.Fatalf("job %d: event of job-%d among job-%d's frames", n, resp.Event.Job, jobID)
					}
					jobID = resp.Event.Job
				case resp.Error != nil:
					t.Fatalf("job %d: %+v", n, resp.Error)
				default:
					res, err := command.UnmarshalResult(resp.Result)
					if err != nil {
						t.Fatal(err)
					}
					if sub, ok := res.(*command.SubmitResult); ok {
						frames = append(frames, "submit-reply")
						if jobID != 0 && sub.ID != jobID {
							t.Fatalf("job %d: submit answered job-%d, its events say job-%d", n, sub.ID, jobID)
						}
						jobID = sub.ID
					} else {
						frames = append(frames, "wait-reply")
					}
				}
				if resp.ID == until {
					return
				}
			}
		}
		read(p.send(command.Submit{Cmd: command.Solve{Model: "g", Set: "l"}})[0])
		read(p.send(command.Wait{ID: jobID})[0])
		at := map[string]int{}
		for i, f := range frames {
			at[f] = i
		}
		if len(frames) != 5 || len(at) != 5 || frames[0] != "queued" || frames[4] != "wait-reply" ||
			at["running"] > at["done"] {
			t.Fatalf("job %d put %v on the wire, want queued first, running before done, wait-reply last, submit-reply between", n, frames)
		}
	}
}

// TestOnlySubscribedConnectionsHearOfTheirJobs: three connections each
// submit and wait one solve — one sending bare commands with no
// handshake, one whose hello leaves notify out, one whose hello sets it.
// Only the third is sent ID-0 frames, and exactly its job's queued,
// running and done.
func TestOnlySubscribedConnectionsHearOfTheirJobs(t *testing.T) {
	dial := serveTCP(t, New(openSystem(t, core.Options{}), Config{}))
	for _, c := range []struct {
		name string
		open func(p *tcpPeer)
		want string
	}{
		{"no hello", func(*tcpPeer) {}, "[]"},
		{"hello without notify", func(p *tcpPeer) { p.hello("eng", false) }, "[]"},
		{"hello with notify", func(p *tcpPeer) { p.hello("eng", true) }, "[queued running done]"},
	} {
		p := dial()
		c.open(p)
		var pushed []string
		// until reads frames up to the reply to id, noting every ID-0 frame.
		until := func(id uint64) *wire.Response {
			for {
				resp := p.next()
				switch {
				case resp.ID == 0 && resp.Event != nil:
					pushed = append(pushed, resp.Event.State)
				case resp.ID == 0:
					pushed = append(pushed, fmt.Sprintf("%+v", resp))
				case resp.ID == id:
					if resp.Error != nil {
						t.Fatalf("%s: %+v", c.name, resp.Error)
					}
					return resp
				}
			}
		}
		for _, cmd := range []command.Command{generate, command.EndLoad{Model: "g", Set: "l", FY: -100}} {
			until(p.send(cmd)[0])
		}
		res, err := command.UnmarshalResult(until(p.send(command.Submit{Cmd: command.Solve{Model: "g", Set: "l"}})[0]).Result)
		if err != nil {
			t.Fatal(err)
		}
		until(p.send(command.Wait{ID: res.(*command.SubmitResult).ID})[0])
		until(p.send(command.Ping{})[0])
		if got := fmt.Sprint(pushed); got != c.want {
			t.Errorf("%s: ID-0 frames %s, want %s", c.name, got, c.want)
		}
	}
}

// connOf returns the server's only connection and its session.
func connOf(t *testing.T, srv *Server) (*conn, *auvm.Session) {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.conns) != 1 {
		t.Fatalf("%d connections, want 1", len(srv.conns))
	}
	for c := range srv.conns {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c, c.sess
	}
	return nil, nil
}

// TestQueuedEventsFlushBeforeClose: however a connection ends — quit, the
// client hanging up its sending side, the server shutting down — the
// events already queued for it, terminal ones included, reach the peer
// before the socket closes.  The test holds the connection's write lock
// while a job runs to completion, so its running and done events are
// certainly still queued when the end begins.
func TestQueuedEventsFlushBeforeClose(t *testing.T) {
	ends := map[string]func(p *tcpPeer, srv *Server, c *conn){
		"quit": func(p *tcpPeer, srv *Server, c *conn) { p.send(command.Quit{}) },
		"client half-close": func(p *tcpPeer, srv *Server, c *conn) {
			if err := p.nc.CloseWrite(); err != nil {
				t.Fatal(err)
			}
		},
		"shutdown": func(p *tcpPeer, srv *Server, c *conn) {
			go srv.Shutdown(context.Background())
			<-c.ctx.Done()
		},
	}
	for name, end := range ends {
		t.Run(name, func(t *testing.T) {
			sys := openSystem(t, core.Options{})
			srv := New(sys, Config{})
			p := serveTCP(t, srv)()
			p.hello("anon", true)
			p.do(generate)
			p.do(command.EndLoad{Model: "g", Set: "l", FY: -100})
			c, sess := connOf(t, srv)

			c.wmu.Lock()
			id, err := sys.Jobs.Submit(context.Background(), "anon@conn-1", sess, command.Solve{Model: "g", Set: "l"})
			if err == nil {
				_, err = sys.Jobs.Wait(context.Background(), id)
			}
			if err != nil {
				c.wmu.Unlock()
				t.Fatal(err)
			}
			end(p, srv, c)
			c.wmu.Unlock()

			var states []string
			for {
				resp, err := wire.DecodeResponse(p.br)
				if err != nil {
					if !errors.Is(err, io.EOF) {
						t.Fatalf("after %v: %v, want a clean close", states, err)
					}
					break
				}
				if resp.Event != nil {
					states = append(states, resp.Event.State)
				} else {
					states = append(states, "reply")
				}
			}
			want := []string{"queued", "running", "done"}
			if name == "quit" {
				want = append(want, "reply")
			}
			if fmt.Sprint(states) != fmt.Sprint(want) {
				t.Errorf("frames before the close: %v, want %v", states, want)
			}
		})
	}
}

// TestFullEventQueueDropsAndCounts: notify never waits for a connection
// that is not being read — past outboundQueue pending events it drops,
// and server.events_dropped says how many.
func TestFullEventQueueDropsAndCounts(t *testing.T) {
	sys := openSystem(t, core.Options{})
	srv := New(sys, Config{})
	p := serveTCP(t, srv)()
	p.hello("anon", true)
	p.do(generate)
	p.do(command.EndLoad{Model: "g", Set: "l", FY: -100})
	c, sess := connOf(t, srv)
	dropped := sys.Obs.Counter(obs.ServerEventsDropped)

	const jobs = 100 // three events each
	c.wmu.Lock()
	for n := 0; n < jobs; n++ {
		id, err := sys.Jobs.Submit(context.Background(), "anon@conn-1", sess, command.Solve{Model: "g", Set: "l"})
		if err == nil {
			_, err = sys.Jobs.Wait(context.Background(), id)
		}
		if err != nil {
			c.wmu.Unlock()
			t.Fatal(err)
		}
	}
	c.wmu.Unlock()
	if got := dropped.Load(); got != 3*jobs-outboundQueue {
		t.Errorf("%s = %d, want %d", obs.ServerEventsDropped, got, 3*jobs-outboundQueue)
	}
	// What was queued arrives, in order, ahead of the next reply.
	ids := p.send(command.Ping{})
	events := 0
	for {
		resp := p.next()
		if resp.ID == ids[0] {
			break
		}
		if want := []string{"queued", "running", "done"}[events%3]; resp.Event == nil || resp.Event.State != want {
			t.Fatalf("frame %d: %+v, want a %s event", events, resp, want)
		}
		events++
	}
	if events != outboundQueue {
		t.Errorf("%d events arrived, want the %d that fit the queue", events, outboundQueue)
	}
}
