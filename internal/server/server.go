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
	// MaxJobsPerSession bounds each connection's live jobs; <= 0
	// disables admission control.
	MaxJobsPerSession int
	// QuotaPolicy picks reject-vs-queue when a connection saturates its
	// bound.
	QuotaPolicy job.QuotaPolicy
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
	mQuotaRejected *obs.Counter
	mPanics        *obs.Counter
	hRequest       *obs.HistogramFamily // server.request.<verb>

	// placedBeside counts the requests given a goroutine of their own
	// (conn.runsBeside) — what the placement test reads.
	placedBeside atomic.Int64

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]struct{}
	connSeq int64
	wg      sync.WaitGroup
}

// New builds a server over a system, installing the per-tenant quota on
// the system's scheduler.
func New(sys *core.System, cfg Config) *Server {
	sys.Jobs.SetQuota(cfg.MaxJobsPerSession, cfg.QuotaPolicy)
	s := &Server{sys: sys, cfg: cfg, conns: map[*conn]struct{}{}}
	reg := sys.Obs
	s.gConnections = reg.Gauge(obs.ServerConnections)
	s.mFramesIn = reg.Counter(obs.ServerFramesIn)
	s.mFramesOut = reg.Counter(obs.ServerFramesOut)
	s.mFramesGeneral = reg.Counter(obs.ServerFramesGeneral)
	s.mFlushes = reg.Counter(obs.ServerFlushes)
	s.mEventsDropped = reg.Counter(obs.ServerEventsDropped)
	s.mQuotaRejected = reg.Counter(obs.ServerQuotaRejected)
	s.mPanics = reg.Counter(obs.ServerPanics)
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
	s.gConnections.Add(-1)
	s.mu.Unlock()
	s.wg.Done()
}

// Shutdown drains the server gracefully: stop accepting, reject
// mutating commands (job control, reads, and health verbs still
// answer), wait for live jobs to reach terminal states — or until ctx
// dies, after which the remaining jobs are cancelled through their
// contexts — then flush every connection's outbound queue and close.
// It returns the drain error: nil when every job finished, the ctx's
// cancellation otherwise.
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
//   - The reader (serve) decodes requests in arrival order and executes
//     each one itself, so a connection's requests take effect in the
//     order they were sent — except those runsBeside names (solve, a wait
//     whose job is still queued or running, submit of a command the
//     scheduler runs inline), which get a goroutine of their own so a
//     cancel, status or ping pipelined behind a long or blocked request
//     still answers first.  runsBeside decides per request: a wait whose
//     job has already finished is answered by the reader.
//   - Whichever goroutine has a reply writes it (write): under the write
//     lock it first moves every queued event into the buffer, then the
//     reply, and flushes once.  Frames therefore leave in the order they
//     were produced, and everything queued before a reply existed
//     precedes it on the wire: queued before the submit reply, done
//     before the wait reply.
//   - The event writer writes events that have no reply behind them.
//     notify wakes it unless the reader is executing a request, whose
//     reply will carry the queue out on its own flush.
type conn struct {
	srv *Server
	nc  net.Conn
	id  int64

	ctx    context.Context
	cancel context.CancelFunc

	// wmu is the write lock: it orders the drain of events, the frames
	// appended to bw and the flush of one writer against the next.
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

	// reqs tracks the requests running beside the reader so teardown can
	// flush only after every one of them has written its reply.
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
	return &conn{
		srv: s, nc: nc, id: id,
		ctx: ctx, cancel: cancel,
		bw:   bufio.NewWriter(nc),
		wake: make(chan struct{}, 1),
	}
}

// runsBeside reports whether a request gets a goroutine of its own
// instead of running on the connection's reader.  Three kinds do: a
// request that may take long (Heavy: solve); a wait whose job may still
// be queued or running — one its session's scheduler does not report
// Settled (a settled wait, or one on a session with no scheduler,
// answers at once); and a submit the scheduler will not answer at once —
// one wrapping a command that is not Heavy, which the scheduler runs on
// the submitter's goroutine where it may wait for a model lock, or any
// submit when admission holds an over-quota submitter (the queue policy)
// instead of refusing it.
func (c *conn) runsBeside(cmd command.Command) bool {
	switch v := command.Value(cmd).(type) {
	case command.Submit:
		cfg := c.srv.cfg
		return !command.PropsOf(v.Cmd).Has(command.Heavy) ||
			(cfg.MaxJobsPerSession > 0 && cfg.QuotaPolicy == job.QuotaQueue)
	case command.Wait:
		jobs := c.session("", false).Jobs
		return jobs != nil && !jobs.Settled(job.JobID(v.ID))
	}
	return command.PropsOf(cmd).Has(command.Heavy | command.Blocks)
}

// serve runs the connection to completion.
func (c *conn) serve() {
	defer c.srv.removeConn(c)
	c.srv.logf("conn-%d: open from %s", c.id, c.nc.RemoteAddr())

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for range c.wake {
			c.write(nil)
		}
	}()

	// When the connection context dies (server shutdown, write failure,
	// quit) unblock the blocking read — the reader owns teardown — and
	// bound any write a peer that stopped reading is holding up.
	stop := context.AfterFunc(c.ctx, func() {
		c.nc.SetReadDeadline(time.Now())
		c.nc.SetWriteDeadline(time.Now().Add(teardownFlush))
	})

	br := bufio.NewReader(c.nc)
	for {
		req, err := wire.DecodeRequest(br)
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
		if c.runsBeside(cmd) {
			c.srv.placedBeside.Add(1)
			c.reqs.Add(1)
			go func() {
				defer c.reqs.Done()
				c.handleCommand(req.ID, cmd)
			}()
			continue
		}
		c.setInline(true)
		c.handleCommand(req.ID, cmd)
		c.setInline(false)
	}

	// Teardown, in dependency order: stop new frames (requests beside the
	// reader finish, the subscription detaches, the event writer exits),
	// flush the events still queued — terminal notifications included —
	// then close the socket and the session — cancelling this
	// connection's jobs, the mid-solve disconnect story.
	stop()
	c.cancel()
	c.reqs.Wait()
	c.mu.Lock()
	unsub, sessName := c.unsub, c.sessName
	c.mu.Unlock()
	if unsub != nil {
		unsub()
	}
	close(c.wake)
	<-writerDone
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

// handleCommand gates, executes, and answers one decoded command
// request.
func (c *conn) handleCommand(id uint64, cmd command.Command) {
	props := command.PropsOf(cmd)
	if c.srv.draining.Load() && props.RefusedDraining() {
		c.write(&wire.Response{ID: id, Error: &wire.Error{
			Code:    wire.CodeDraining,
			Message: fmt.Sprintf("server is draining; %q not accepted", command.Value(cmd))}})
		return
	}
	if c.srv.sys.Degraded() && props.RefusedDegraded() {
		c.write(&wire.Response{ID: id, Error: &wire.Error{
			Code:    wire.CodeDegraded,
			Message: fmt.Sprintf("store degraded (read-only); %q not accepted", command.Value(cmd))}})
		return
	}
	if cl := c.srv.sys.Cluster; cl != nil && !cl.IsLeader() && props.Has(command.LeaderOnly) {
		// Refused before execution, so the client may retry any verb on
		// the leader — see wire.CodeNotLeader.  Reads — status, wait, jobs,
		// retrieve, list, display — keep serving, which is the point of
		// running followers at all.
		c.write(&wire.Response{ID: id, Error: &wire.Error{
			Code:    wire.CodeNotLeader,
			Leader:  cl.LeaderAddr(),
			Message: fmt.Sprintf("not the cluster leader; %q not accepted here", command.Value(cmd))}})
		return
	}
	ctx := c.ctx
	if t := c.srv.cfg.RequestTimeout; t > 0 && !props.ServerTimeoutExempt() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	sess := c.session("", false)
	start := time.Now()
	res, err := c.do(ctx, sess, cmd)
	c.srv.hRequest.Get(command.Verb(cmd)).Observe(time.Since(start))
	if errors.Is(err, job.ErrQuota) {
		c.srv.mQuotaRejected.Inc()
	}

	resp := &wire.Response{ID: id, Res: res}
	if err != nil {
		resp.Error = wireError(err)
	}
	if c.write(resp) && errors.Is(err, auvm.ErrQuit) {
		// quit ends the connection after its reply is flushed.
		c.cancel()
	}
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
