// Package server serves a FEM-2 system over the wire: a TCP front end
// that exposes the full typed command surface — the synchronous verbs,
// the asynchronous submit/status/wait/cancel/jobs job service, and
// server-pushed job-state notifications for the connections that ask for
// them in the handshake — to any number of concurrent network clients.
//
// Each connection is one tenant: the server registers a unique
// per-connection session (user@conn-N) in the shared core.System, so
// connections get isolated workspaces over the shared database and
// scheduler, a disconnect cancels exactly that connection's jobs, and
// the scheduler's per-owner quota meters each connection independently.
//
// Shutdown is graceful: Shutdown stops the listener, rejects mutating
// commands with the draining code while job-control and health verbs
// still answer, waits for live jobs to finish (cancelling leftovers if
// the drain context dies first), flushes each connection's outbound
// queue — terminal notifications included — and closes.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auvm"
	"repro/internal/command"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ErrServerClosed is returned by Serve after Shutdown stops the
// listener — the clean-exit signal, mirroring net/http.
var ErrServerClosed = errors.New("server: closed")

// Config parameterises one server.
type Config struct {
	// MaxJobsPerSession bounds each connection's live jobs: a submit past
	// it is refused with the quota code.  <= 0 disables admission control.
	MaxJobsPerSession int
	// RequestTimeout bounds each command's execution server-side; a
	// request past it answers with the cancelled code.  <= 0 disables.
	// wait and submit are exempt (command.Props.ServerTimeoutExempt):
	// job lifetime is bounded by disconnect and cancel, not by the
	// request that enqueued it.
	RequestTimeout time.Duration
	// Logf, when non-nil, receives one line per connection lifecycle
	// event.
	Logf func(format string, args ...any)
}

// Server serves one core.System over TCP.
type Server struct {
	sys *core.System
	cfg Config

	draining atomic.Bool

	// Front-end metrics, resolved once from the system registry; nil
	// no-op sinks when the system has none (see internal/obs).
	gConnections   *obs.Gauge
	mFramesIn      *obs.Counter
	mFramesOut     *obs.Counter
	mFramesGeneral *obs.Counter
	mFlushes       *obs.Counter
	mEventsDropped *obs.Counter
	mPanics        *obs.Counter
	mReaderRuns    *obs.Counter
	mHandOffs      *obs.Counter
	hRequest       *obs.HistogramFamily // server.request.<verb>

	// rmu guards the reader runs (conn.readerRun): runs, those the timer
	// may still hand off, the state of each, and armed, which says
	// handOffTimer will fire.  The one timer serves every connection: it is
	// armed when a timed run starts and it is not armed already, and again
	// when it fires with runs still young, so steady traffic arms it about
	// once per handOff — arming a timer wakes another thread, the very cost
	// a run on the reader saves.
	rmu          sync.Mutex
	runs         map[*run]struct{}
	armed        bool
	handOffTimer *time.Timer

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]struct{}
	connSeq int64
	wg      sync.WaitGroup
	// stopMonitor ends keepMonitorWaking's timer, which runs while a
	// connection is open.
	stopMonitor func()
}

// New builds a server over a system, installing the per-tenant quota on
// the system's scheduler.
func New(sys *core.System, cfg Config) *Server {
	sys.Jobs.SetQuota(cfg.MaxJobsPerSession)
	s := &Server{sys: sys, cfg: cfg, conns: map[*conn]struct{}{}, runs: map[*run]struct{}{}}
	reg := sys.Obs
	s.gConnections = reg.Gauge(obs.ServerConnections)
	s.mFramesIn = reg.Counter(obs.ServerFramesIn)
	s.mFramesOut = reg.Counter(obs.ServerFramesOut)
	s.mFramesGeneral = reg.Counter(obs.ServerFramesGeneral)
	s.mFlushes = reg.Counter(obs.ServerFlushes)
	s.mEventsDropped = reg.Counter(obs.ServerEventsDropped)
	s.mPanics = reg.Counter(obs.ServerPanics)
	s.mReaderRuns = reg.Counter(obs.ServerReaderRuns)
	s.mHandOffs = reg.Counter(obs.ServerHandOffs)
	s.hRequest = reg.HistogramFamily(obs.ServerRequestPrefix)
	return s
}

// logf writes one log line when configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Listen binds addr and starts serving on it in a new goroutine,
// returning the bound address (useful with ":0").  Serve's eventual
// error is discarded; use Serve directly to observe it.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Shutdown (ErrServerClosed) or a
// listener failure.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.connSeq++
		c := newConn(s, nc, s.connSeq)
		if len(s.conns) == 0 {
			s.stopMonitor = keepMonitorWaking()
		}
		s.conns[c] = struct{}{}
		s.gConnections.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

// removeConn drops a finished connection from the registry.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	if len(s.conns) == 0 && s.stopMonitor != nil {
		s.stopMonitor()
		s.stopMonitor = nil
	}
	s.gConnections.Add(-1)
	s.mu.Unlock()
	s.wg.Done()
}

// Shutdown drains the server gracefully: stop accepting, reject
// mutating commands (job control, reads, and health verbs still
// answer), wait for live jobs to reach terminal states and synchronous
// commands to finish — or until ctx dies, after which the remaining
// work is cancelled through its contexts — then flush every
// connection's outbound queue and close.  It returns the drain error:
// nil when all of that work finished, the ctx's cancellation otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()

	// Cancel-or-finish: Drain waits for in-flight work; if ctx dies
	// first, Close (below) sweeps what is left through the existing job
	// context plumbing.
	err := s.sys.Drain(ctx)

	// Stop the connections.  Terminal job notifications were enqueued at
	// publish time, so each conn's teardown flushes them before the
	// socket closes.
	s.mu.Lock()
	for c := range s.conns {
		c.cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()

	s.sys.Close()
	return err
}

// conn is one client connection and one private session in the shared
// system.  Three kinds of goroutine touch it:
//
//   - The reader (read) decodes requests in arrival order and executes
//     each one itself, where place puts it.  Most run in line, so a
//     connection's requests take effect in the order they were sent.  The
//     rest are reader runs (readerRun), each of which may pass the socket
//     to a successor reader, so a cancel, status or ping pipelined behind
//     a long or blocked request still answers first: a request that could
//     keep what follows it waiting hands the socket off before it starts;
//     a synchronous solve that could not, and the job of a Heavy submit
//     the reader has just answered (job.Own), hand it off once they
//     outlast handOff, when the server's timer does it.  The old reader
//     finishes the run and returns.  One goroutine is the reader at a
//     time, and the one that ends the read loop tears the connection
//     down.
//   - Whichever goroutine has a reply writes it (write): under the write
//     lock it first moves every queued event into the buffer, then the
//     reply, and flushes once.  Frames therefore leave in the order they
//     were produced, and everything queued before a reply existed
//     precedes it on the wire: queued before the submit reply, done
//     before the wait reply.
//   - The event writer writes events that have no reply behind them.
//     notify wakes it unless the reader is executing a request, whose
//     reply will carry the queue out on its own flush, or a timed run,
//     whose end (or hand-off) flushes it.
type conn struct {
	srv *Server
	nc  net.Conn
	id  int64

	ctx    context.Context
	cancel context.CancelFunc

	// br is what the reader reads, over rawIO's reader; stop undoes the
	// hook that unblocks its read when ctx dies; writerDone closes when
	// the event writer exits.
	br         *bufio.Reader
	stop       func() bool
	writerDone chan struct{}

	// handedRuns counts the connection's reader runs that have handed the
	// socket off and are still going; while one is, every run the reader
	// starts hands off at once.
	handedRuns atomic.Int32

	// wmu is the write lock: it orders the drain of events, the frames
	// appended to bw (over rawIO's writer) and the flush of one writer
	// against the next.
	wmu sync.Mutex
	bw  *bufio.Writer
	// drained is the slice the last drain emptied, kept for the next.
	drained []*wire.Response

	// qmu guards the event queue.  It is never held across I/O or a call
	// out of this file, so notify — which runs under the scheduler's
	// mutex — waits on it for a few instructions at most.
	qmu sync.Mutex
	// events are the job notifications not yet written, oldest first,
	// at most outboundQueue of them: beyond that notify drops (status and
	// wait remain the authoritative record).
	events []*wire.Response
	// inline is set while the reader executes a request itself.
	inline bool
	// wake tells the event writer the queue is not empty; one pending
	// signal covers any number of events.
	wake chan struct{}

	// reqs tracks the reader runs still going after a hand-off, so
	// teardown can flush only after every one of them has written its
	// reply or finished.
	reqs sync.WaitGroup

	mu       sync.Mutex
	sessName string
	sess     *auvm.Session
	unsub    func()
	hello    bool
}

// outboundQueue bounds the per-connection notification queue.
const outboundQueue = 256

func newConn(s *Server, nc net.Conn, id int64) *conn {
	ctx, cancel := context.WithCancel(context.Background())
	r, w := rawIO(nc)
	return &conn{
		srv: s, nc: nc, id: id,
		ctx: ctx, cancel: cancel,
		br:   bufio.NewReader(r),
		bw:   bufio.NewWriter(w),
		wake: make(chan struct{}, 1),
	}
}

// placement is where a request executes: in line on the reader, or as a
// reader run (readerRun) that passes the socket to a successor reader
// when the hand-off timer fires or at once.
type placement uint8

const (
	// inLine: the reader executes the request and reads on once it has
	// answered it.
	inLine placement = iota
	// inLineOwned is inLine under the reader's job.WithOwn context: the
	// Heavy job the submit queues is left to job.Own, whose Take may run
	// it on the reader as a timed run instead of waking a worker.
	inLineOwned
	// timedRun: a run the hand-off timer hands off once it outlasts
	// handOff.
	timedRun
	// handedRun: a run handed off at once, before it starts.
	handedRun
)

// place decides where a request executes, from its verb and what the
// reader finds when it decodes it.  A request that could keep what
// follows it waiting is a run handed off at once: a synchronous solve
// with a request buffered behind it, a run of the connection still going
// after a hand-off, or its model held, so Hold would park the reader; a
// wait whose job may still be queued or running — one its session's
// scheduler does not report Settled (a settled wait, or one on a session
// with no scheduler, answers at once); and a submit the scheduler will
// not answer at once — one wrapping a command that is not Heavy, which
// the scheduler runs on the submitter's goroutine where it may wait for a
// model lock.  Any other synchronous solve
// is a timed run.  A Heavy submit runs in line, and leaves its job to
// job.Own when nothing is buffered behind it and no run of the connection
// is still going after a hand-off, so no request waits for the job and a
// connection has one run at a time on the timer.  The rest run in line.
func (c *conn) place(cmd command.Command) placement {
	switch v := command.Value(cmd).(type) {
	case command.Submit:
		if !command.PropsOf(v.Cmd).Has(command.Heavy) {
			return handedRun
		}
		if c.br.Buffered() == 0 && c.handedRuns.Load() == 0 {
			return inLineOwned
		}
		return inLine
	case command.Wait:
		if jobs := c.session("", false).Jobs; jobs != nil && !jobs.Settled(job.JobID(v.ID)) {
			return handedRun
		}
		return inLine
	}
	if !command.PropsOf(cmd).Has(command.Heavy) {
		return inLine
	}
	if c.br.Buffered() > 0 || c.handedRuns.Load() > 0 {
		return handedRun
	}
	if sess := c.session("", false); sess.Jobs != nil && sess.Jobs.Held(sess.User, command.ModelOf(cmd)) {
		return handedRun
	}
	return timedRun
}

// serve starts the connection's event writer and its reader.
func (c *conn) serve() {
	c.srv.logf("conn-%d: open from %s", c.id, c.nc.RemoteAddr())

	c.writerDone = make(chan struct{})
	go func() {
		defer close(c.writerDone)
		for range c.wake {
			c.write(nil)
		}
	}()

	// When the connection context dies (server shutdown, write failure,
	// quit) unblock the blocking read — the reader owns teardown — and
	// bound any write a peer that stopped reading is holding up.
	c.stop = context.AfterFunc(c.ctx, func() {
		c.nc.SetReadDeadline(time.Now())
		c.nc.SetWriteDeadline(time.Now().Add(teardownFlush))
	})

	c.read()
}

// read is the read loop: serve runs it, and a hand-off runs it again on a
// successor goroutine while the reader before it finishes its run.  It
// tears the connection down when the loop ends, and returns without
// doing so once it has handed the socket off.
func (c *conn) read() {
	// own is this reader's hold on the Heavy job its submit just queued;
	// ownCtx, under which such a submit leaves the job to own.Take; r, the
	// state of this reader's runs, one at a time.
	var own job.Own
	ownCtx := job.WithOwn(c.ctx, &own)
	r := &run{c: c}
	for {
		req, err := wire.DecodeRequest(c.br)
		if err != nil {
			break
		}
		c.srv.mFramesIn.Inc()
		if req.General {
			c.srv.mFramesGeneral.Inc()
		}
		if req.Hello != nil {
			c.handleHello(req)
			continue
		}
		if req.ID == 0 {
			c.write(&wire.Response{Error: &wire.Error{
				Code: wire.CodeProto, Message: "request id 0 is reserved for notifications"}})
			continue
		}
		cmd := req.Cmd
		if cmd == nil { // a frame off the general path, or one with no command at all
			if cmd, err = command.UnmarshalCommand(req.Command); err != nil {
				c.write(&wire.Response{ID: req.ID, Error: wireError(err)})
				continue
			}
		}
		p := c.place(cmd)
		ctx := c.ctx
		if p == inLineOwned {
			ctx = ownCtx
		}
		exec := func() (*wire.Response, error) { return c.execute(ctx, req.ID, cmd) }
		if p == handedRun {
			c.readerRun(r, true, exec)
			return // a successor reads on
		}
		c.setInline(true)
		var handedOff bool
		if p == timedRun {
			handedOff = c.readerRun(r, false, exec)
		} else {
			c.answer(exec())
			handedOff = own.Take() && c.readerRun(r, false, func() (*wire.Response, error) { own.Run(); return nil, nil })
		}
		if handedOff {
			return // a successor reads on
		}
		c.setInline(false)
	}
	c.teardown()
}

// run is the state of one reader run, under srv.rmu: its connection,
// when it started, and whether it has passed the socket to a successor
// reader.  Each reader has its own and reuses it for its runs, one after
// another, so no run can overwrite the state of another — one its
// predecessor still runs after a hand-off, say.
type run struct {
	c      *conn
	start  time.Time
	handed bool
}

// readerRun is the one bracket of a reader run: fn — a request place
// made a run, or the job own.Take gave the reader — executes on the
// reader, handed off at once when now is set and under the hand-off timer
// otherwise.  The run's reply, if it has one, and the events raised
// during a timed run, which wait for its end (or the hand-off), go out
// once the run is over: a request sent on that reply never finds the run
// still going.  It reports whether the run handed the socket to a
// successor reader.
func (c *conn) readerRun(r *run, now bool, fn func() (*wire.Response, error)) (handedOff bool) {
	if now {
		c.srv.rmu.Lock()
		r.handOff()
		c.srv.rmu.Unlock()
	} else {
		c.srv.mReaderRuns.Inc()
		c.srv.startRun(r)
	}
	resp, err := fn()
	handedOff = c.srv.endRun(r)
	if resp != nil || !handedOff {
		c.answer(resp, err)
	}
	if handedOff {
		c.reqs.Done() // the successor's teardown may go on
	}
	return handedOff
}

// handOff is how long a reader run may go on before a successor reader
// takes the socket over, and so bounds how long a request sent behind a
// synchronous solve or a submit waits for it.  Every arming of the
// hand-off timer wakes another thread, so it must fire rarely: on a
// two-vCPU host, iterate_small's daemon CPU per job was about 11 % higher
// with 1 ms than with 10 ms.
const handOff = 10 * time.Millisecond

// startRun registers a timed run starting on its connection's reader,
// arming the hand-off timer unless it is armed already.
func (s *Server) startRun(r *run) {
	s.rmu.Lock()
	r.start = time.Now()
	s.runs[r] = struct{}{}
	if !s.armed {
		s.armed = true
		if s.handOffTimer == nil {
			s.handOffTimer = time.AfterFunc(handOff, s.handOffDue)
		} else {
			s.handOffTimer.Reset(handOff)
		}
	}
	s.rmu.Unlock()
}

// endRun unregisters a run that has ended and reports whether it passed
// its socket on.
func (s *Server) endRun(r *run) (handedOff bool) {
	s.rmu.Lock()
	delete(s.runs, r)
	handedOff = r.handed
	s.rmu.Unlock()
	if handedOff {
		r.c.handedRuns.Add(-1)
	}
	return handedOff
}

// handOffDue is the hand-off timer: the reader of every run that has
// lasted handOff passes its socket to a successor, and the timer is
// armed again for the runs still younger than that.
func (s *Server) handOffDue() {
	s.rmu.Lock()
	s.armed = false
	now := time.Now()
	next := time.Duration(0)
	for r := range s.runs {
		if left := handOff - now.Sub(r.start); left > 0 {
			if next == 0 || left < next {
				next = left
			}
			continue
		}
		delete(s.runs, r)
		r.handOff()
	}
	if next > 0 {
		s.armed = true
		s.handOffTimer.Reset(next)
	}
	s.rmu.Unlock()
}

// handOff passes the socket of r's connection to a successor reader,
// while r's reader goes on with the run; it is called under srv.rmu.
func (r *run) handOff() {
	r.handed = true
	r.c.handedRuns.Add(1)
	r.c.reqs.Add(1) // done by readerRun: the successor's teardown waits for the run
	r.c.srv.mHandOffs.Inc()
	r.c.setInline(false) // the events the run raised so far go out now
	go r.c.read()
}

// teardown ends the connection, in dependency order: stop new frames
// (the runs of handed-off readers finish; the subscription detaches; the
// event writer exits), flush the
// events still queued — terminal notifications included — then close the
// socket and the session — cancelling this connection's jobs, the
// mid-solve disconnect story.
func (c *conn) teardown() {
	defer c.srv.removeConn(c)
	c.stop()
	c.cancel()
	c.reqs.Wait()
	c.mu.Lock()
	unsub, sessName := c.unsub, c.sessName
	c.mu.Unlock()
	if unsub != nil {
		unsub()
	}
	close(c.wake)
	<-c.writerDone
	c.nc.SetWriteDeadline(time.Now().Add(teardownFlush))
	c.write(nil)
	c.nc.Close()
	if sessName != "" {
		c.srv.sys.CloseSession(sessName)
	}
	c.srv.logf("conn-%d: closed (session %s)", c.id, sessName)
}

// teardownFlush bounds the writes of a connection that is going away.
const teardownFlush = 2 * time.Second

// write sends everything the connection owes its peer right now — the
// queued events, then resp, the caller's reply (nil when it has none) —
// in one flush, and reports whether the bytes reached the socket.  A
// failed write ends the connection.
func (c *conn) write(resp *wire.Response) bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.qmu.Lock()
	frames := c.events
	c.events = c.drained[:0]
	c.qmu.Unlock()
	if resp != nil {
		frames = append(frames, resp)
	}
	var err error
	for _, f := range frames {
		// Each frame is encoded in place in the write buffer's free space.
		var frame []byte
		if frame, err = wire.AppendResponse(c.bw.AvailableBuffer(), f); err != nil && f.Res != nil {
			// A result no frame can carry (a NaN field) is answered as
			// the error it is.
			frame, err = wire.AppendResponse(frame, &wire.Response{ID: f.ID, Error: wireError(err)})
		}
		if err == nil {
			_, err = c.bw.Write(frame)
		}
		if err != nil {
			break
		}
		c.srv.mFramesOut.Inc()
	}
	clear(frames)
	c.drained = frames
	if err == nil && c.bw.Buffered() > 0 {
		c.srv.mFlushes.Inc()
		err = c.bw.Flush()
	}
	if err != nil {
		c.cancel()
	}
	return err == nil
}

// setInline brackets a request the reader executes itself.  Events
// raised in between wait for that request's reply; one raised after the
// reply drained the queue has nothing behind it, so the event writer is
// woken for it when the bracket closes.
func (c *conn) setInline(on bool) {
	c.qmu.Lock()
	c.inline = on
	stranded := !on && len(c.events) > 0
	c.qmu.Unlock()
	if stranded {
		c.wakeWriter()
	}
}

func (c *conn) wakeWriter() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// notify queues one notification best-effort: a full queue drops it
// rather than blocking the scheduler (the callback runs under the
// scheduler's mutex), and status/wait remain the authoritative record.
func (c *conn) notify(resp *wire.Response) {
	c.qmu.Lock()
	full := len(c.events) >= outboundQueue
	if !full {
		c.events = append(c.events, resp)
	}
	inline := c.inline
	c.qmu.Unlock()
	if full {
		c.srv.mEventsDropped.Inc()
	} else if !inline {
		c.wakeWriter()
	}
}

// session returns the connection's session, creating it on first use
// under the handshake user (or the server default).  The session name
// is unique per connection, so each connection is its own tenant.  The
// connection hears of its jobs only when the handshake asked (notify).
func (c *conn) session(user string, notify bool) *auvm.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess != nil {
		return c.sess
	}
	if user == "" {
		user = "anon" // a connection that skipped the Hello handshake
	}
	c.sessName = fmt.Sprintf("%s@conn-%d", user, c.id)
	c.sess = c.srv.sys.Session(c.sessName)
	if notify {
		c.unsub = c.srv.sys.Jobs.Subscribe(c.sessName, func(snap job.Snapshot) {
			c.notify(&wire.Response{Event: jobEvent(snap)})
		})
	}
	return c.sess
}

// jobEvent converts a scheduler snapshot into its wire notification.
func jobEvent(snap job.Snapshot) *wire.JobEvent {
	ev := &wire.JobEvent{
		Job: int64(snap.ID), State: snap.State.String(), Cmd: snap.Cmd.String(),
	}
	if snap.Err != nil && snap.State.Terminal() {
		ev.Error = snap.Err.Error()
	}
	return ev
}

// handleHello answers the handshake.
func (c *conn) handleHello(req *wire.Request) {
	c.mu.Lock()
	already := c.hello || c.sess != nil
	c.hello = true
	c.mu.Unlock()
	if already {
		c.write(&wire.Response{ID: req.ID, Error: &wire.Error{
			Code: wire.CodeProto, Message: "hello must be the first and only handshake"}})
		return
	}
	if req.Hello.Proto != command.ProtocolVersion {
		c.write(&wire.Response{ID: req.ID, Error: &wire.Error{
			Code: wire.CodeProto,
			Message: fmt.Sprintf("protocol mismatch: client %d, server %d",
				req.Hello.Proto, command.ProtocolVersion)}})
		return
	}
	c.session(req.Hello.User, req.Hello.Notify)
	c.mu.Lock()
	sessName := c.sessName
	c.mu.Unlock()
	c.write(&wire.Response{ID: req.ID, Welcome: &wire.Welcome{
		Server: "fem2d", Release: command.Release,
		Proto: command.ProtocolVersion, Session: sessName,
		Storage:       c.srv.sys.StorageBackend(),
		Degraded:      c.srv.sys.Degraded(),
		UptimeSeconds: c.srv.sys.Obs.UptimeSeconds(),
		Role:          c.srv.sys.ClusterRole(),
		Leader:        c.srv.sys.ClusterLeader(),
	}})
}

// answer writes the reply to a request; quit ends the connection after
// its reply is flushed.
func (c *conn) answer(resp *wire.Response, err error) {
	if c.write(resp) && errors.Is(err, auvm.ErrQuit) {
		c.cancel()
	}
}

// execute gates and executes one decoded command request under ctx (the
// connection's, or the reader's WithOwn context for a submit), and
// returns its reply with the command's error.
func (c *conn) execute(ctx context.Context, id uint64, cmd command.Command) (*wire.Response, error) {
	props := command.PropsOf(cmd)
	if c.srv.draining.Load() && props.RefusedDraining() {
		return &wire.Response{ID: id, Error: &wire.Error{
			Code:    wire.CodeDraining,
			Message: fmt.Sprintf("server is draining; %q not accepted", command.Value(cmd))}}, nil
	}
	if c.srv.sys.Degraded() && props.RefusedDegraded() {
		return &wire.Response{ID: id, Error: &wire.Error{
			Code:    wire.CodeDegraded,
			Message: fmt.Sprintf("store degraded (read-only); %q not accepted", command.Value(cmd))}}, nil
	}
	if cl := c.srv.sys.Cluster; cl != nil && !cl.IsLeader() && props.Has(command.LeaderOnly) {
		// Refused before execution, so the client may retry any verb on
		// the leader — see wire.CodeNotLeader.  Reads — status, wait, jobs,
		// retrieve, list, display — keep serving, which is the point of
		// running followers at all.
		return &wire.Response{ID: id, Error: &wire.Error{
			Code:    wire.CodeNotLeader,
			Leader:  cl.LeaderAddr(),
			Message: fmt.Sprintf("not the cluster leader; %q not accepted here", command.Value(cmd))}}, nil
	}
	if t := c.srv.cfg.RequestTimeout; t > 0 && !props.ServerTimeoutExempt() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	sess := c.session("", false)
	start := time.Now()
	res, err := c.do(ctx, sess, cmd)
	c.srv.hRequest.Get(command.Verb(cmd)).Observe(time.Since(start))

	resp := &wire.Response{ID: id, Res: res}
	if err != nil {
		resp.Error = wireError(err)
	}
	return resp, err
}

// do executes one command on the connection's session.  A panic in there
// becomes the request's error, answered with the internal code, where it
// would have ended the daemon and every other connection with it.
// (Scheduled jobs have their own boundary in job.Scheduler.)
func (c *conn) do(ctx context.Context, sess *auvm.Session, cmd command.Command) (res command.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.srv.mPanics.Inc()
			c.srv.logf("conn-%d: panic executing %q: %v\n%s", c.id, command.Verb(cmd), p, debug.Stack())
			res, err = nil, fmt.Errorf("server: panic executing %q: %v", command.Verb(cmd), p)
		}
	}()
	return sess.Do(ctx, cmd)
}

// wireError maps a server-side error onto its wire code, carrying the
// error text verbatim so the client renders the identical line.
func wireError(err error) *wire.Error {
	return &wire.Error{Code: wire.CodeOf(err), Message: err.Error()}
}
