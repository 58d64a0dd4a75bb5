package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/auvm"
	"repro/internal/command"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/wire"
)

// The stream search draws pipelined request streams — 1–4 connections,
// each sending batches of 1–30 frames without waiting for replies, in one
// to three writes apart, the last batch perhaps cut short by a hang-up at
// a frame boundary or mid-frame — and runs each against an in-process
// server, checking:
//
//   - every request on a live connection gets exactly one reply, carrying
//     its own id;
//   - the state-changing verbs take effect in arrival order: each reply is
//     the one a local session fed the same requests in that order gives,
//     frame for frame (a solve's Refactored and Flops aside: they tell
//     which solve of a model factored it, which concurrent solves decide);
//   - a subscribed connection hears a job's queued before its submit
//     reply, and its terminal event before the reply to a wait on it;
//   - a ping is answered within handOff plus streamSlack of its sending,
//     less the longest stall of the test's own 1 ms watcher during its
//     flight: a host that starves the watcher starves the server too;
//   - while the stream runs: no reader run is on its reader streamSlack
//     past handOff, none starts while a run of its connection that handed
//     off is going, and no more Heavy jobs run than the pool has workers;
//   - once every reply of a batch that names no job is in, no run of its
//     connection is going;
//   - after Shutdown: no run is registered, no job is live, and the
//     goroutine count is back where it was before the server started.
//
// Streams keep to what the protocol defines: a request reading or editing
// the plate g is drawn only while no solve or job of g may be going on
// its connection — one pipelined ahead of it may run beside it, by design
// — and a long job is cancelled in the batch after its submit.

const (
	// streamTimeout is the server's request timeout, which ends a
	// synchronous SOR solve of the 40×24 plate: long past handOff.
	streamTimeout = 400 * time.Millisecond
	// streamSlack is how far past handOff a run may still hold its reader,
	// and a ping wait for its reply, on a loaded host under the race
	// detector.
	streamSlack = 150 * time.Millisecond
	// streamWorkers is the pool bound of openSystem's systems.
	streamWorkers = 1
)

// stepKind is what one drawn frame asks.
type stepKind uint8

const (
	stepPing       stepKind = iota
	stepSolve               // a synchronous solve of g
	stepSolveLong           // a synchronous SOR solve of wide or wide2, ended by streamTimeout
	stepEndLoad             // g's load set, redrawn
	stepMaterial            // the session's material
	stepGenerate            // g, regenerated
	stepDisplay             // g's displacements
	stepStresses            // g's stresses
	stepStore               // g, stored
	stepSubmit              // submit of a solve of g
	stepSubmitLong          // submit of an SOR solve of big, cancelled in the next batch
	stepSubmitPing          // submit of a ping, which the scheduler runs inline
	stepWait
	stepStatus
	stepCancel
	stepSetup // a set-up command, sent closed-loop
)

// stepKinds are the kinds a frame is drawn from, weighted by repetition.
var stepKinds = []stepKind{stepPing, stepPing, stepSolve, stepSolve, stepSolveLong, stepEndLoad, stepMaterial,
	stepGenerate, stepDisplay, stepStresses, stepStore, stepSubmit, stepSubmit, stepSubmitLong, stepSubmitPing,
	stepWait, stepWait, stepStatus, stepCancel}

var (
	streamPlate = command.GenerateGrid{Name: "g", NX: 8, NY: 6, W: 8, H: 6, ClampLeft: true}
	solveG      = command.Solve{Model: "g", Set: "l"}
	// A connection's two synchronous SOR solves iterate on wide and wide2,
	// and a submitted one on big, so none waits for another's model.  Both
	// are the 40×24 plate: SOR needs ~53 000 iterations (seconds) on it,
	// far past streamTimeout, where on the 24×40 plate it converges in
	// 6 765 (~0.4 s), at times before the timeout.
	sorSolves = []command.Solve{{Model: "wide", Set: "l", Method: command.MethodSOR}, {Model: "wide2", Set: "l", Method: command.MethodSOR}}
	sorJob    = command.Submit{Cmd: command.Solve{Model: "big", Set: "l", Method: command.MethodSOR}}
	// streamSetup opens every connection's session, closed-loop.
	streamSetup = []command.Command{streamPlate, command.EndLoad{Model: "g", Set: "l", FY: -100}, solveG,
		bigGrid, command.EndLoad{Model: "big", Set: "l", FY: -100},
		command.GenerateGrid{Name: "wide", NX: 40, NY: 24, W: 40, H: 24, ClampLeft: true},
		command.EndLoad{Model: "wide", Set: "l", FY: -100},
		command.GenerateGrid{Name: "wide2", NX: 40, NY: 24, W: 40, H: 24, ClampLeft: true},
		command.EndLoad{Model: "wide2", Set: "l", FY: -100}}
	// unissued is a job id no stream reaches.
	unissued int64 = 1 << 40
)

// step is one frame of a batch: its command, or for wait, status and
// cancel the connection's submit it names (-1: an id never issued).
type step struct {
	kind stepKind
	cmd  command.Command
	job  int
}

// streamBatch is what a connection sends before it reads the replies:
// its frames, the frame indices at which a new write starts, pause
// after each write but the last, and, on a connection's last batch, how
// it hangs up.
type streamBatch struct {
	steps []step
	cuts  []int
	pause time.Duration
	// hang ends the connection after the first hangAt frames (and half of
	// the next one when mid is set): with a half-close when it is
	// hangHalf, after which every whole frame is still answered, or a
	// close when it is hangClose.
	hang   hangUp
	hangAt int
	mid    bool
}

type hangUp uint8

const (
	hangNone hangUp = iota
	hangHalf
	hangClose
)

// connStream is one connection's part of a stream.
type connStream struct {
	notify  bool
	batches []streamBatch
}

// choices is the generator's source of decisions: the bytes of a seed's
// random stream, or a fuzz input.  Past its end every choice is the
// first, so a short input draws a short stream.
type choices []byte

func (c *choices) n(k int) int {
	if len(*c) == 0 {
		return 0
	}
	b := (*c)[0]
	*c = (*c)[1:]
	return int(b) % k
}

// drawnJob is what the generator knows of one submit of a connection.
type drawnJob struct {
	batch  int // the batch that submits it
	model  string
	long   bool
	waited int  // the batch that waits for it, -1 before one does
	ended  bool // a cancel of it is drawn
}

// stream is one drawn stream: its connections, and whether the server's
// socket writes return slowWrite late — after the bytes are on their way,
// so that whatever a writer does next happens after its peer can read
// them.  A slow write sleeps holding the connection's write lock, and a
// busy host may wake it late, so a ping's time is not checked then.
type stream struct {
	slow  bool
	conns []connStream
}

const slowWrite = time.Millisecond

// drawStream draws a stream from c.
func drawStream(c choices) stream {
	slow := c.n(2) == 1
	conns := make([]connStream, 1+c.n(4))
	// A stream has at most two synchronous SOR solves: each keeps a CPU
	// busy for streamTimeout, and more of them than the host has CPUs
	// would delay every reader past any bound a ping could be held to.
	longSolves := 0
	for i := range conns {
		cs := &conns[i]
		cs.notify = c.n(2) == 1
		var jobs []drawnJob
		nb := 1 + c.n(4)
		for b := 0; b < nb; b++ {
			n := 1 + c.n(30)
			// A closed batch names no job, so its connection has no run
			// going once its replies are in.
			closed := c.n(3) == 0
			// g is quiet while no job of it may be going, and no solve of it
			// is pipelined ahead in this batch.
			quiet := !slices.ContainsFunc(jobs, func(j drawnJob) bool { return j.model == "g" && j.waited < 0 })
			var steps []step
			// A batch submits a long job or waits, not both: a job the
			// batch waits for may queue behind the long job on the one
			// worker, and the cancel that ends it comes in the next batch.
			longJobs, waits := 0, 0
			// known draws a submit of an earlier batch, one not waited for
			// yet at even odds, or -1 for an id never issued.
			known := func() int {
				var ks, open []int
				for k, j := range jobs {
					if j.batch < b {
						ks = append(ks, k)
						if j.waited < 0 {
							open = append(open, k)
						}
					}
				}
				if len(open) > 0 && c.n(2) == 0 {
					return open[c.n(len(open))]
				}
				if len(ks) == 0 || c.n(8) == 0 {
					return -1
				}
				return ks[c.n(len(ks))]
			}
			for len(steps) < n {
				s := step{kind: stepKinds[c.n(len(stepKinds))], job: -1}
				if closed && s.kind >= stepSubmit {
					s.kind = stepKinds[c.n(slices.Index(stepKinds, stepSubmit))]
				}
				switch s.kind {
				case stepSolve:
					s.cmd, quiet = solveG, false
				case stepSolveLong:
					if longSolves++; longSolves > 2 {
						s.kind, s.cmd = stepSolve, solveG
						quiet = false
					} else if s.cmd = sorSolves[longSolves-1]; longSolves == 1 && c.n(2) == 0 {
						// The second follows at once, so that it may find the
						// first handed off.
						steps = append(steps, s)
						s.cmd, longSolves = sorSolves[1], 2
					}
				case stepEndLoad:
					loads := []float64{0, -100, 250, -1e3, 1e-3}
					s.cmd = command.EndLoad{Model: "g", Set: "l", FX: loads[c.n(5)], FY: loads[c.n(5)]}
				case stepMaterial:
					s.cmd = command.SetMaterial{E: []float64{2e6, 1e6, 3e5}[c.n(3)], Nu: []float64{0.3, 0.25}[c.n(2)], T: 1, A: 1}
				case stepGenerate:
					nx, ny := 2+c.n(5), 1+c.n(4)
					s.cmd = command.GenerateGrid{Name: "g", NX: nx, NY: ny, W: float64(nx), H: float64(ny), ClampLeft: true}
				case stepDisplay:
					s.cmd = command.Display{What: command.DisplayDisplacements, Model: "g"}
				case stepStresses:
					s.cmd = command.Stresses{Model: "g"}
				case stepStore:
					s.cmd = command.Store{Model: "g"}
				case stepSubmit:
					s.cmd, quiet = command.Submit{Cmd: solveG}, false
					jobs = append(jobs, drawnJob{batch: b, model: "g", waited: -1})
				case stepSubmitLong:
					if longJobs > 0 || waits > 0 {
						s.kind, s.cmd = stepPing, command.Ping{}
					} else {
						longJobs++
						s.cmd = sorJob
						jobs = append(jobs, drawnJob{batch: b, model: "big", long: true, waited: -1})
					}
				case stepSubmitPing:
					s.cmd = command.Submit{Cmd: command.Ping{}}
					jobs = append(jobs, drawnJob{batch: b, waited: -1})
				case stepWait, stepStatus, stepCancel:
					if s.kind == stepWait {
						if longJobs > 0 {
							s.kind = stepStatus
						} else {
							waits++
						}
					}
					if s.job = known(); s.job >= 0 && s.kind == stepWait && jobs[s.job].waited < 0 {
						jobs[s.job].waited = b
					}
					if s.job >= 0 && s.kind == stepCancel {
						jobs[s.job].ended = true
					}
				default:
					s.cmd = command.Ping{}
				}
				switch s.kind {
				case stepEndLoad, stepGenerate, stepDisplay, stepStresses, stepStore:
					if !quiet {
						s = step{kind: stepSolve, cmd: solveG, job: -1}
					}
				}
				steps = append(steps, s)
			}
			// A long job of an earlier batch not cancelled yet is cancelled
			// in this one, so a wait on it ends — in its second half, so the
			// job overlaps what the batch and the other connections run.
			for k := range jobs {
				if j := &jobs[k]; j.long && !j.ended && j.batch < b {
					j.ended = true
					at := len(steps)/2 + c.n(len(steps)-len(steps)/2+1)
					steps = slices.Insert(steps, at, step{kind: stepCancel, job: k})
				}
			}
			sb := streamBatch{steps: steps, pause: time.Duration(c.n(21)) * time.Millisecond}
			for w := c.n(3); w > 0 && len(steps) > 1; w-- {
				sb.cuts = append(sb.cuts, 1+c.n(len(steps)-1))
			}
			// A long step ends its write at odds of three in four, and the
			// pause outlasts handOff, so what follows finds its run handed
			// off.
			for k, s := range steps[:len(steps)-1] {
				if (s.kind == stepSolveLong || s.kind == stepSubmitLong) && c.n(4) != 0 {
					sb.cuts = append(sb.cuts, k+1)
					sb.pause = handOff + time.Duration(2+c.n(10))*time.Millisecond
				}
			}
			slices.Sort(sb.cuts)
			sb.cuts = slices.Compact(sb.cuts)
			if b == nb-1 {
				switch h := c.n(8); h {
				case 1, 2:
					sb.hang, sb.mid, sb.hangAt = hangHalf, h == 2, c.n(len(steps))
				case 3, 4:
					sb.hang, sb.mid, sb.hangAt = hangClose, h == 4, c.n(len(steps))
				}
			}
			cs.batches = append(cs.batches, sb)
		}
	}
	return stream{slow, conns}
}

// slowListener accepts connections whose writes return slowWrite late.
type slowListener struct{ net.Listener }

func (l slowListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowConn{nc}, nil
}

type slowConn struct{ net.Conn }

func (c slowConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	time.Sleep(slowWrite)
	return n, err
}

// findings collects what a stream's checks found, from any goroutine.
type findings struct {
	mu   sync.Mutex
	list []string
}

func (f *findings) add(format string, a ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.list) < 20 {
		f.list = append(f.list, fmt.Sprintf(format, a...))
	}
}

func (f *findings) any() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.list) > 0
}

// runStream runs the stream data draws against a new server and fails t
// with what the checks found.
func runStream(t *testing.T, data []byte) {
	t.Helper()
	st := drawStream(choices(data))
	ref := openSystem(t, core.Options{})
	base := runtime.NumGoroutine()
	sys := openSystem(t, core.Options{})
	srv := New(sys, Config{RequestTimeout: streamTimeout})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if st.slow {
		ln = slowListener{ln}
	}
	go srv.Serve(ln)
	var f findings
	var stalled stalls
	stop := watchRuns(srv, sys, &f, &stalled)
	var wg sync.WaitGroup
	for i, cs := range st.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runConn(srv, addr, ref.Session(fmt.Sprintf("ref-%d", i)), i, cs, !st.slow, &f, &stalled)
		}()
	}
	wg.Wait()
	stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(ctx) }()
	select {
	case err := <-shut:
		if err != nil {
			f.add("shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		f.add("shutdown has not returned 20s after it began")
		t.Fatalf("stream %s:\n%s", describeStream(st), joinLines(f.list))
	}
	srv.rmu.Lock()
	if n := len(srv.runs); n != 0 {
		f.add("%d reader runs registered after shutdown", n)
	}
	srv.rmu.Unlock()
	jobs, err := sys.Jobs.List(job.Filter{})
	if err != nil {
		f.add("jobs after shutdown: %v", err)
	}
	for _, snap := range jobs {
		if !snap.State.Terminal() {
			f.add("%s is %v after shutdown", snap.ID, snap.State)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			f.add("%d goroutines 5s after shutdown, %d before the server started", runtime.NumGoroutine(), base)
			break
		}
	}
	if f.any() {
		t.Errorf("stream %s:\n%s", describeStream(st), joinLines(f.list))
	}
}

func joinLines(lines []string) string {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString("  " + l + "\n")
	}
	return b.String()
}

// describeStream renders a stream for a failure message.
func describeStream(st stream) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "(slow writes %v)", st.slow)
	for i, cs := range st.conns {
		fmt.Fprintf(&b, "\n conn %d (notify %v):", i, cs.notify)
		for _, sb := range cs.batches {
			b.WriteString("\n  [")
			for k, s := range sb.steps {
				if slices.Contains(sb.cuts, k) {
					fmt.Fprintf(&b, " | %v |", sb.pause)
				}
				if sb.hang != hangNone && k == sb.hangAt {
					fmt.Fprintf(&b, " hang-up %d (mid-frame %v)", sb.hang, sb.mid)
				}
				if s.cmd != nil {
					fmt.Fprintf(&b, " %q", s.cmd)
				} else {
					fmt.Fprintf(&b, " %s(submit %d)", []string{stepWait: "wait", stepStatus: "status", stepCancel: "cancel"}[s.kind], s.job)
				}
			}
			b.WriteString(" ]")
		}
	}
	return b.String()
}

// watchTick is the watcher's period.
const watchTick = time.Millisecond

// stalls are the times the watcher woke late: each gap between two of its
// ticks longer than twice its period.
type stalls struct {
	mu   sync.Mutex
	gaps [][2]time.Time
}

// longest returns the longest stall during [from, to], less the tick
// period: the part of a gap inside the interval by which it outlasts a
// tick.
func (s *stalls) longest(from, to time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var d time.Duration
	for _, g := range s.gaps {
		start, end := g[0], g[1]
		if start.Before(from) {
			start = from
		}
		if end.After(to) {
			end = to
		}
		d = max(d, end.Sub(start)-watchTick)
	}
	return d
}

// watchRuns checks, every millisecond until stop is called, that no
// reader run is on its reader streamSlack past handOff, none runs while a
// run of its connection that handed off is going, and no more Heavy jobs
// run than the pool has workers.  It records in stalled each gap between
// its ticks longer than twice the period.
func watchRuns(srv *Server, sys *core.System, f *findings, stalled *stalls) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(watchTick)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			now := time.Now()
			if now.Sub(last) > 2*watchTick {
				stalled.mu.Lock()
				stalled.gaps = append(stalled.gaps, [2]time.Time{last, now})
				stalled.mu.Unlock()
			}
			last = now
			srv.rmu.Lock()
			for r := range srv.runs {
				if n := r.c.handedRuns.Load(); n > 0 {
					f.add("conn-%d: a reader run is going beside %d runs of its connection that handed off", r.c.id, n)
				}
				if age := time.Since(r.start); age > handOff+streamSlack {
					f.add("conn-%d: a reader run still holds its reader %v after it started", r.c.id, age)
				}
			}
			srv.rmu.Unlock()
			heavy := 0
			running, _ := sys.Jobs.List(job.Filter{States: []job.State{job.Running}})
			for _, snap := range running {
				if command.PropsOf(snap.Cmd).Has(command.Heavy) {
					heavy++
				}
			}
			if heavy > streamWorkers {
				f.add("%d Heavy jobs running on a pool of %d", heavy, streamWorkers)
			}
		}
	}()
	return func() { close(done); <-exited }
}

// arrival is one frame the client read, or the error that ended reading.
type arrival struct {
	resp *wire.Response
	at   time.Time
	err  error
}

// expected is what the reply to one sent frame must be.
type expected struct {
	s    step
	sent time.Time
	// res and err are the local session's reply to the same request at
	// the same place in arrival order, for the kinds it answers.
	res command.Result
	err error
}

// streamJob is a submit the client sent, and what a wait on it answers.
type streamJob struct {
	id        int64
	long      bool
	res       command.Result
	err       error
	cancelled bool // a cancel of it was sent
}

// runConn drives one connection of a stream: the set-up, closed-loop,
// then each batch, checking every reply against the local session ref.
func runConn(srv *Server, addr string, ref *auvm.Session, n int, cs connStream, timed bool, f *findings, stalled *stalls) {
	ctx := context.Background()
	name := fmt.Sprintf("conn %d", n)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		f.add("%s: dial: %v", name, err)
		return
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(60 * time.Second))
	frames, quit := make(chan arrival, 256), make(chan struct{})
	defer close(quit)
	go func() {
		br := bufio.NewReader(nc)
		for {
			resp, err := wire.DecodeResponse(br)
			select {
			case frames <- arrival{resp, time.Now(), err}:
			case <-quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	events := map[int64][]string{}
	var id uint64
	var jobs []streamJob
	// collect reads frames until every id in want is answered, or reading
	// ends, and checks each reply; eof says reading must end after them.
	collect := func(want map[uint64]*expected, ending bool, eof bool) bool {
		timeout := time.After(20 * time.Second)
		for len(want) > 0 || eof {
			var a arrival
			select {
			case a = <-frames:
			case <-timeout:
				var cmds []string
				for id, e := range want {
					cmds = append(cmds, fmt.Sprintf("%d %q", id, e.s.cmd))
				}
				slices.Sort(cmds)
				var live []string
				jobs, _ := srv.sys.Jobs.List(job.Filter{States: []job.State{job.Queued, job.Running}})
				for _, snap := range jobs {
					live = append(live, fmt.Sprintf("%s %v %q", snap.ID, snap.State, snap.Cmd))
				}
				f.add("%s: no reply after 20s to %v; live jobs %v", name, cmds, live)
				return false
			}
			if a.err != nil {
				if len(want) > 0 || !eof {
					f.add("%s: reading ended with %d requests unanswered: %v", name, len(want), a.err)
				}
				return false
			}
			resp := a.resp
			if resp.ID == 0 {
				if resp.Event == nil || !cs.notify {
					f.add("%s: unasked frame %+v", name, resp)
				} else {
					events[resp.Event.Job] = append(events[resp.Event.Job], resp.Event.State)
				}
				continue
			}
			e := want[resp.ID]
			if e == nil {
				f.add("%s: reply to id %d, which has none outstanding", name, resp.ID)
				continue
			}
			delete(want, resp.ID)
			stall := stalled.longest(e.sent, a.at)
			if msg := checkReply(e, resp, a.at, stall, jobs, events, cs.notify, timed, ending); msg != "" {
				f.add("%s: %q (id %d): %s", name, e.s.cmd, resp.ID, msg)
			}
			if sub, ok := resp.Res.(*command.SubmitResult); ok && resp.Error == nil {
				for k := range jobs {
					if jobs[k].id == -int64(resp.ID) {
						jobs[k].id = sub.ID
					}
				}
			}
		}
		return true
	}
	// send writes frames, the cuts apart, and returns when each was sent.
	send := func(frames [][]byte, cuts []int, pause time.Duration) ([]time.Time, bool) {
		sent := make([]time.Time, len(frames))
		var buf []byte
		from := 0
		for i := 0; i <= len(frames); i++ {
			if i < len(frames) && (i == 0 || !slices.Contains(cuts, i)) {
				buf = append(buf, frames[i]...)
				continue
			}
			if _, err := nc.Write(buf); err != nil {
				f.add("%s: send: %v", name, err)
				return nil, false
			}
			now := time.Now()
			for k := from; k < i; k++ {
				sent[k] = now
			}
			if i < len(frames) {
				time.Sleep(pause)
				buf, from = append(buf[:0], frames[i]...), i
			}
		}
		return sent, true
	}
	encode := func(cmd command.Command) []byte {
		id++
		data, err := command.MarshalCommand(cmd)
		if err != nil {
			panic(err)
		}
		var b bytes.Buffer
		if err := wire.EncodeRequest(&b, &wire.Request{ID: id, Command: data}); err != nil {
			panic(err)
		}
		return b.Bytes()
	}

	id++
	if err := wire.EncodeRequest(nc, &wire.Request{ID: id, Hello: &wire.Hello{User: "eng", Proto: command.ProtocolVersion, Notify: cs.notify}}); err != nil {
		f.add("%s: hello: %v", name, err)
		return
	}
	if a := <-frames; a.err != nil || a.resp.Welcome == nil {
		f.add("%s: hello answered %+v", name, a)
		return
	}
	sc := serverConn(srv, nc)
	if sc == nil {
		f.add("%s: the server has no connection from %v", name, nc.LocalAddr())
		return
	}
	for _, cmd := range streamSetup {
		e := &expected{s: step{cmd: cmd, kind: stepSetup}}
		e.res, e.err = ref.Do(ctx, cmd)
		sent, ok := send([][]byte{encode(cmd)}, nil, 0)
		if !ok {
			return
		}
		e.sent = sent[0]
		if !collect(map[uint64]*expected{id: e}, false, false) {
			return
		}
	}

	for b, sb := range cs.batches {
		n := len(sb.steps)
		if sb.hang != hangNone {
			n = sb.hangAt
		}
		want := map[uint64]*expected{}
		var out [][]byte
		var exps []*expected
		for k := range sb.steps {
			s := sb.steps[k]
			if s.cmd == nil {
				jobID := unissued
				if s.job >= 0 && jobs[s.job].id > 0 {
					jobID = jobs[s.job].id
				}
				s.cmd = map[stepKind]command.Command{stepWait: command.Wait{ID: jobID}, stepStatus: command.Status{ID: jobID},
					stepCancel: command.Cancel{ID: jobID}}[s.kind]
			}
			frame := encode(s.cmd)
			if k > n || (k == n && !sb.mid) {
				break
			}
			if k == n {
				out = append(out, frame[:len(frame)/2])
				break
			}
			e := &expected{s: s}
			switch s.kind {
			case stepSolve, stepEndLoad, stepMaterial, stepGenerate, stepDisplay, stepStresses, stepStore:
				e.res, e.err = ref.Do(ctx, s.cmd)
			case stepSubmit:
				res, err := ref.Do(ctx, solveG)
				jobs = append(jobs, streamJob{id: -int64(id), res: res, err: err})
			case stepSubmitLong:
				jobs = append(jobs, streamJob{id: -int64(id), long: true})
			case stepSubmitPing:
				jobs = append(jobs, streamJob{id: -int64(id), res: &command.PingResult{}})
			case stepCancel:
				if s.job >= 0 {
					jobs[s.job].cancelled = true
				}
			}
			want[id] = e
			out = append(out, frame)
			exps = append(exps, e)
		}
		// The job steps refer to submits by index; so does a reply check.
		for _, e := range exps {
			if e.s.kind == stepWait || e.s.kind == stepStatus || e.s.kind == stepCancel {
				if e.s.job < 0 || jobs[e.s.job].id <= 0 {
					e.s.job = -1
				}
			}
		}
		// A batch that names no job, after every job of the connection
		// was waited for, is checked for runs once its replies are in; the
		// runs of earlier batches end first.
		closedLoop := sb.hang == hangNone && allWaited(cs.batches[:b]) &&
			!slices.ContainsFunc(sb.steps, func(s step) bool { return s.kind >= stepSubmit })
		for deadline := time.Now().Add(2 * time.Second); closedLoop && runsOf(srv, sc) != 0; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				f.add("%s: %d runs still going 2s after every job of the connection was waited for", name, runsOf(srv, sc))
				closedLoop = false
			}
		}
		sent, ok := send(out, sb.cuts, sb.pause)
		if !ok {
			return
		}
		for i, e := range exps {
			e.sent = sent[i]
		}
		switch sb.hang {
		case hangClose:
			nc.Close()
			return
		case hangHalf:
			if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
				f.add("%s: half-close: %v", name, err)
				return
			}
			collect(want, true, true)
			return
		}
		if !collect(want, false, false) {
			return
		}
		// Once every reply of a batch that names no job is in, no run of
		// the connection it started is going: each run's reply leaves
		// after the run is over.
		if closedLoop {
			if n := runsOf(srv, sc); n != 0 {
				f.add("%s: every reply of batch %d is in, and %d of its runs are still going", name, b, n)
			}
		}
	}
	if err := nc.(*net.TCPConn).CloseWrite(); err == nil {
		collect(nil, true, true)
	}
}

// allWaited reports whether every job the batches submit is waited for
// in one of them.
func allWaited(batches []streamBatch) bool {
	submits, waited := 0, map[int]bool{}
	for _, sb := range batches {
		for _, s := range sb.steps {
			switch s.kind {
			case stepSubmit, stepSubmitLong, stepSubmitPing:
				submits++
			case stepWait:
				if s.job >= 0 {
					waited[s.job] = true
				}
			}
		}
	}
	return len(waited) == submits
}

// runsOf counts the runs of c going: those handed off, and one still on
// the reader.
func runsOf(srv *Server, c *conn) int {
	srv.rmu.Lock()
	defer srv.rmu.Unlock()
	n := int(c.handedRuns.Load())
	for r := range srv.runs {
		if r.c == c {
			n++
		}
	}
	return n
}

// serverConn returns the server's end of the client connection nc.
func serverConn(srv *Server, nc net.Conn) *conn {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for c := range srv.conns {
		if c.nc.RemoteAddr().String() == nc.LocalAddr().String() {
			return c
		}
	}
	return nil
}

// checkReply checks one reply against what was expected of it, and
// returns what is wrong, "" when nothing is.  timed says a ping's reply
// must come within handOff plus streamSlack, the watcher's longest stall
// between its sending and at aside; ending, that the connection hung up
// behind the request, which may then answer cancelled.
func checkReply(e *expected, got *wire.Response, at time.Time, stall time.Duration, jobs []streamJob, events map[int64][]string, notify, timed, ending bool) string {
	code := ""
	if got.Error != nil {
		code = got.Error.Code
	}
	if ending && code == wire.CodeCancelled {
		return ""
	}
	var sj *streamJob
	if e.s.job >= 0 && (e.s.kind == stepWait || e.s.kind == stepStatus || e.s.kind == stepCancel) {
		sj = &jobs[e.s.job]
	}
	switch e.s.kind {
	case stepPing:
		if _, ok := got.Res.(*command.PingResult); !ok || code != "" {
			return fmt.Sprintf("answered %+v, want pong", got)
		}
		if d := at.Sub(e.sent); timed && d-stall > handOff+streamSlack {
			return fmt.Sprintf("answered %v after it was sent, %v of it the watcher's longest stall, want within %v", d, stall, handOff+streamSlack)
		}
	case stepSolveLong:
		if code != wire.CodeCancelled {
			return fmt.Sprintf("answered %+v, want code %q", got, wire.CodeCancelled)
		}
	case stepSubmit, stepSubmitLong, stepSubmitPing:
		sub, ok := got.Res.(*command.SubmitResult)
		if !ok || code != "" || sub.Cmd != command.Value(e.s.cmd).(command.Submit).Cmd.String() {
			return fmt.Sprintf("answered %+v, want the job of %q", got, e.s.cmd)
		}
		if notify && !slices.Contains(events[sub.ID], "queued") {
			return fmt.Sprintf("job-%d's reply came before its queued event (events %v)", sub.ID, events[sub.ID])
		}
	case stepWait:
		if sj == nil {
			if code != wire.CodeNotFound {
				return fmt.Sprintf("answered %+v, want code %q", got, wire.CodeNotFound)
			}
			return ""
		}
		if _, ping := sj.res.(*command.PingResult); ping {
			if _, ok := got.Res.(*command.PingResult); !ok || code != "" {
				return fmt.Sprintf("answered %+v, want pong", got)
			}
		} else if sj.long || (sj.cancelled && code == wire.CodeCancelled) {
			if code != wire.CodeCancelled {
				return fmt.Sprintf("answered %+v, want code %q", got, wire.CodeCancelled)
			}
		} else if msg := sameReply(got, sj.res, sj.err); msg != "" {
			return msg
		}
		if evs := events[sj.id]; notify && (!slices.Contains(evs, "queued") ||
			!slices.ContainsFunc(evs, func(s string) bool { st, _ := job.ParseState(s); return st.Terminal() })) {
			return fmt.Sprintf("job-%d's wait reply came before its queued and terminal events (events %v)", sj.id, evs)
		}
	case stepStatus, stepCancel:
		if sj == nil {
			if code != wire.CodeNotFound {
				return fmt.Sprintf("answered %+v, want code %q", got, wire.CodeNotFound)
			}
			return ""
		}
		var id int64 = -1
		switch r := got.Res.(type) {
		case *command.JobStatusResult:
			id = r.ID
		case *command.CancelResult:
			id = r.ID
		}
		if code != "" || id != sj.id {
			return fmt.Sprintf("answered %+v, want job-%d's", got, sj.id)
		}
	default:
		return sameReply(got, e.res, e.err)
	}
	return ""
}

// sameReply returns how got differs from the frame the local session's
// reply (res, err) encodes to, "" when it does not; a solve's Refactored
// and Flops are taken from got.
func sameReply(got *wire.Response, res command.Result, err error) string {
	want := &wire.Response{ID: got.ID, Res: res}
	if err != nil {
		want.Error = wireError(err)
	}
	if g, ok := got.Res.(*command.SolveResult); ok {
		if w, ok := res.(*command.SolveResult); ok {
			masked := *w
			masked.Refactored, masked.Flops = g.Refactored, g.Flops
			want.Res = &masked
		}
	}
	wantFrame, werr := wire.AppendResponse(nil, want)
	gotFrame, gerr := wire.AppendResponse(nil, got)
	if werr != nil || gerr != nil {
		return fmt.Sprintf("encoding: %v %v", werr, gerr)
	}
	if !bytes.Equal(gotFrame, wantFrame) {
		return fmt.Sprintf("got %q, the local session's reply is %q", gotFrame, wantFrame)
	}
	return ""
}

// streamSeed is the input the search draws stream seed from.
func streamSeed(seed int64) []byte {
	data := make([]byte, 512)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestServerStreamSearch runs the streams of a fixed range of seeds.
func TestServerStreamSearch(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runStream(t, streamSeed(seed)) })
	}
}

// FuzzServerStream runs the stream a fuzz input draws; the search's
// first seeds are its corpus.
func FuzzServerStream(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(streamSeed(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runStream(t, data)
	})
}
