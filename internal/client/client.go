// Package client is the network counterpart of internal/server: it
// speaks the wire protocol to a fem2d daemon and exposes the same
// typed Do(ctx, Command) (Result, error) surface as a local
// auvm.Session — decoded results are the identical structs, so their
// String renderings are byte-identical to local execution, and remote
// errors carry the server's error text verbatim plus a code that maps
// errors.Is back onto the shared sentinels.
//
// A Client is safe for concurrent use: requests are correlated by id,
// so goroutines may pipeline commands (a blocking wait does not stall
// a concurrent cancel).  Server-pushed job-state notifications arrive
// on Events when Options.Notify asked for them.
//
// # Who reads the socket
//
// A round trip reads its own reply: the goroutine that sent a request
// takes the connection's read role and reads frames until its reply
// arrives, handing any other caller's reply to that caller and any
// notification to Events on the way, then passes the role on.  A caller
// that finds the role taken waits for its reply or for the role, so only
// concurrent callers pay a hand-off between goroutines.  A read cut short
// (a cancelled caller, an expired RequestTimeout) keeps the bytes of a
// half-read frame for the next reader.  A read loop runs only where
// something must be read with no call in flight: on a connection with
// Options.Notify, on every connection once Events has been called, so
// that the channel closes when the server hangs up, and on a connection
// that cannot be read without waiting (one that is not a syscall.Conn,
// such as a fault.Conn or a TLS conn, and every one on a non-unix build),
// so that it still finds an idle hang-up.  Without one, a hang-up while
// the client was idle is found before the next send (see Reconnection).
//
// # Reconnection
//
// With Options.MaxRetries > 0 the client rides out connection loss: a
// dead connection is replaced transparently (exponential backoff with
// seeded jitter between attempts), and requests that are safe to
// replay — the idempotent global verbs, command.Replayable in the verb
// table — are retried on the fresh connection.  A request that may have
// mutated server state (a submit, a model edit) is never replayed once
// its frame has been sent; it fails back to the caller, who knows best
// whether to repeat it.  Dial failures are retried for every verb,
// because nothing was sent, and so is a connection found dead before the
// send: a server that hung up while the client was idle.  Note that a
// reconnect is a fresh server session: workspace state (models, the
// session name) does not carry over, which is exactly why only global
// verbs replay.
//
// With MaxRetries == 0 (the default, and Dial's behaviour) any
// connection failure is permanent, as before: in-flight and future
// calls fail with ErrClientClosed and the Events channel closes.
//
// # Clusters
//
// The address may name several endpoints, comma-separated
// ("a:9900,b:9900").  The client connects to the first that answers
// and rotates through the rest when a connection cannot be dialed, so
// a daemon dying moves the client to a surviving peer under the same
// replay rules as any reconnect.  A follower answering a mutating verb
// with the "not-leader" code redirects the client: the refusal happens
// before the command executes, so the client re-dials the advertised
// leader and retries the command — any command, idempotent or not —
// within the same MaxRetries budget (with retries disabled the
// not-leader error surfaces to the caller instead).  See
// docs/cluster.md.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/auvm"
	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// RemoteError is a server-reported failure.  Error() is the server's
// error text verbatim — the remote REPL line prints byte-identical to
// the local one — and Is maps the wire code back onto the shared error
// taxonomy, so errors.Is(err, fem2.ErrNotFound) classifies remote
// errors exactly like local ones.
type RemoteError struct {
	Code    string
	Message string
}

// Error returns the server-side error text.
func (e *RemoteError) Error() string { return e.Message }

// Is maps the wire code onto the sentinel taxonomy (wire.Errors).
func (e *RemoteError) Is(target error) bool {
	for _, c := range wire.Errors {
		if c.Code == e.Code {
			return target == c.Err
		}
	}
	return false
}

// ErrClientClosed is returned by Do once the connection is gone for
// good; the underlying cause (a read error, Close) is wrapped
// alongside it.
var ErrClientClosed = errors.New("client: connection closed")

// ErrRetriesExhausted classifies a *RetryError: the reconnect budget
// ran out without a successful round trip.
var ErrRetriesExhausted = errors.New("client: retries exhausted")

// RetryError reports a request the client gave up on after burning its
// whole retry budget.  errors.Is(err, ErrRetriesExhausted) matches it;
// Unwrap exposes the last underlying failure.
type RetryError struct {
	// Attempts is the total number of tries, the first included.
	Attempts int
	// Last is the failure of the final attempt.
	Last error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("client: giving up after %d attempts: %v", e.Attempts, e.Last)
}

// Is matches ErrRetriesExhausted.
func (e *RetryError) Is(target error) bool { return target == ErrRetriesExhausted }

// Unwrap exposes the last attempt's failure.
func (e *RetryError) Unwrap() error { return e.Last }

// Options tunes a client's resilience.  The zero value reproduces the
// historical behaviour: no reconnects, no deadlines.
type Options struct {
	// MaxRetries is the reconnect budget per request: after the initial
	// attempt fails, up to MaxRetries more are made (redialing as
	// needed).  0 disables reconnection entirely — the first connection
	// failure closes the client for good.
	MaxRetries int
	// BaseBackoff spaces retries: attempt n waits about BaseBackoff·2ⁿ⁻¹
	// (half fixed, half seeded jitter), capped at maxBackoff.  Defaults
	// to 50ms when retries are enabled.
	BaseBackoff time.Duration
	// RequestTimeout bounds each attempt of each request client-side;
	// 0 means none.  wait is exempt — blocking on a job is its job.
	// A timed-out attempt is not retried (the deadline already cost the
	// caller the time a retry would spend again).
	RequestTimeout time.Duration
	// Seed feeds the jitter PRNG, so a chaos run's retry timing replays.
	Seed int64
	// Dialer replaces net.Dial("tcp", addr) — the hook fault.Dialer
	// plugs into.  Nil means plain TCP.
	Dialer func(addr string) (net.Conn, error)
	// Obs, when non-nil, receives the client's resilience metrics
	// (client.reconnects, client.retries) — a standalone registry for
	// the CLI's -metrics flag, or a shared one in larger deployments.
	Obs *obs.Registry
	// Notify subscribes every connection's handshake, reconnects
	// included, to its jobs' notifications, which arrive on Events.
	// Without it the server sends none.  With it every connection runs a
	// read loop, so replies reach their callers through it.
	Notify bool
}

// eventQueue bounds the notification buffer; a client that never reads
// Events drops the overflow rather than stalling the read loop.
const eventQueue = 256

// Client is a connection to a fem2d daemon — with retries enabled, a
// lineage of connections behind one stable handle, possibly across
// several endpoints of one cluster.
type Client struct {
	user string
	opts Options

	mu sync.Mutex
	// addrs is the endpoint list; cur indexes the one the live link is
	// (or the next dial will be) on.  A not-leader redirect may append
	// an advertised address the caller did not list.
	addrs        []string
	cur          int
	ln           *link // live connection, nil between them
	welcome      *wire.Welcome
	closed       bool
	closeErr     error
	eventsClosed bool
	watched      bool // Events has been called: every link runs a read loop
	reconnects   int
	failovers    int
	everLinked   bool
	rng          *rand.Rand

	dialMu sync.Mutex // serializes reconnect attempts

	done   chan struct{} // closed on permanent close
	events chan *wire.JobEvent

	// Resilience metrics (Options.Obs); nil no-op sinks by default.
	mReconnects *obs.Counter
	mRetries    *obs.Counter
	mFailovers  *obs.Counter
}

// link is one TCP connection's worth of state: its own writer, its own
// pending-request map, its own read role, its own failure.  A link
// failing releases only its own waiters; the Client above decides
// whether that failure is the end (MaxRetries 0) or just weather.
type link struct {
	cl *Client
	nc net.Conn
	// now reads nc without waiting, for the drain before a send; nil
	// where the conn offers no descriptor (a fault.Conn, any conn on a
	// non-unix build), and such a link runs a read loop instead.
	now io.Reader

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]waiter
	reading bool          // the read role is held
	looping bool          // a read loop was started (guarded by cl.mu)
	turn    chan struct{} // the read loop waiting for the role, else nil
	armed   uint64        // generation of the holder's interrupt
	err     error
	done    chan struct{}

	fr wire.FrameReader // read by the role's holder only
}

// waiter is a request in flight.  A caller that reads for itself needs
// neither field; a reply read by someone else before its caller waited is
// parked in resp, and ch exists once the caller waits.
type waiter struct {
	ch   chan *wire.Response
	resp *wire.Response
}

// roleGrant, sent on a waiter's channel, hands it the read role.
var roleGrant = new(wire.Response)

// errWouldBlock is a read that found nothing to read.
var errWouldBlock = errors.New("client: nothing to read")

// Dial connects to a fem2d daemon at addr and completes the handshake
// as user, with the historical no-retry behaviour.
func Dial(addr, user string) (*Client, error) {
	return DialWithOptions(addr, user, Options{})
}

// DialWithOptions connects with explicit resilience settings.  The
// initial dial and handshake must succeed on some endpoint (a cluster
// that is entirely down at start is a configuration problem, not
// weather); the retry budget applies from then on.  addr may be a
// comma-separated endpoint list.
func DialWithOptions(addr, user string, o Options) (*Client, error) {
	if o.Dialer == nil {
		o.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if o.MaxRetries > 0 && o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("client: no endpoint in address %q", addr)
	}
	c := &Client{
		addrs: addrs, user: user, opts: o,
		rng:    rand.New(rand.NewSource(o.Seed)),
		done:   make(chan struct{}),
		events: make(chan *wire.JobEvent, eventQueue),

		mReconnects: o.Obs.Counter(obs.ClientReconnects),
		mRetries:    o.Obs.Counter(obs.ClientRetries),
		mFailovers:  o.Obs.Counter(obs.ClientFailovers),
	}
	ln, w, err := c.connect(context.Background())
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.installLocked(ln, w)
	c.mu.Unlock()
	return c, nil
}

// connect dials and handshakes one fresh link.  The caller installs
// it.  The dial starts at the current endpoint and rotates through the
// rest until one answers; moving off the endpoint of an established
// lineage counts as a failover.
func (c *Client) connect(ctx context.Context) (*link, *wire.Welcome, error) {
	c.mu.Lock()
	addrs := append([]string(nil), c.addrs...)
	cur := c.cur
	c.mu.Unlock()
	var nc net.Conn
	var err error
	picked := -1
	for i := range addrs {
		idx := (cur + i) % len(addrs)
		if nc, err = c.opts.Dialer(addrs[idx]); err == nil {
			picked = idx
			break
		}
	}
	if picked < 0 {
		return nil, nil, err
	}
	c.mu.Lock()
	if picked != c.cur {
		c.cur = picked
		if c.everLinked {
			c.failovers++
			c.mFailovers.Inc()
		}
	}
	c.mu.Unlock()
	ln := &link{
		cl: c, nc: nc, now: readerNow(nc), bw: bufio.NewWriter(nc),
		pending: map[uint64]waiter{},
		done:    make(chan struct{}),
	}
	hctx := ctx
	if t := c.opts.RequestTimeout; t > 0 {
		var cancel context.CancelFunc
		hctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	resp, err := ln.roundTrip(hctx, &wire.Request{
		Hello: &wire.Hello{User: c.user, Proto: command.ProtocolVersion, Notify: c.opts.Notify}})
	if err != nil {
		ln.fail(err)
		return nil, nil, fmt.Errorf("client: handshake: %w", err)
	}
	if resp.Error != nil {
		ln.fail(ErrClientClosed)
		return nil, nil, fmt.Errorf("client: handshake refused: %s", resp.Error.Message)
	}
	if resp.Welcome == nil || resp.Welcome.Proto != command.ProtocolVersion {
		ln.fail(ErrClientClosed)
		return nil, nil, fmt.Errorf("client: bad handshake reply from %s", addrs[picked])
	}
	return ln, resp.Welcome, nil
}

// live returns the current link, dialing a replacement when the old one
// is gone and retries are enabled.  dialMu makes concurrent callers
// share one reconnect instead of racing several.
func (c *Client) live(ctx context.Context) (*link, error) {
	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		return nil, err
	}
	if c.ln != nil {
		ln := c.ln
		c.mu.Unlock()
		return ln, nil
	}
	c.mu.Unlock()

	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		return nil, err
	}
	if c.ln != nil { // someone else reconnected while we waited
		ln := c.ln
		c.mu.Unlock()
		return ln, nil
	}
	c.mu.Unlock()

	ln, w, err := c.connect(ctx)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed { // Close raced the reconnect; don't resurrect
		err := c.closeErr
		c.mu.Unlock()
		ln.fail(ErrClientClosed)
		return nil, err
	}
	if c.everLinked {
		c.reconnects++
		c.mReconnects.Inc()
	}
	c.installLocked(ln, w)
	c.mu.Unlock()
	return ln, nil
}

// installLocked makes a handshaken link the live one, with a read loop
// when something must be read while no call is in flight.
func (c *Client) installLocked(ln *link, w *wire.Welcome) {
	c.ln, c.welcome, c.everLinked = ln, w, true
	c.watchLocked()
}

// watchLocked starts the live link's read loop, once, when notifications
// were asked for, Events is watched, or the link cannot be drained before
// a send (the loop is then what finds an idle hang-up).
func (c *Client) watchLocked() {
	if ln := c.ln; ln != nil && !ln.looping && (c.opts.Notify || c.watched || ln.now == nil) {
		ln.looping = true
		go ln.readLoop()
	}
}

// drop retires a failed link.  With retries disabled the first drop is
// the end of the client, exactly the historical semantics.
func (c *Client) drop(ln *link, err error) {
	ln.fail(err)
	c.mu.Lock()
	if c.ln == ln {
		c.ln = nil
	}
	permanent := c.opts.MaxRetries == 0 && !c.closed
	c.mu.Unlock()
	if permanent {
		c.permanentClose(fmt.Errorf("%w: %w", ErrClientClosed, err))
	}
}

// permanentClose shuts the client for good: future calls fail, the
// events channel closes.  The close happens under the mutex that also
// guards event sends, so it can never race a send from a read loop.
func (c *Client) permanentClose(err error) {
	c.mu.Lock()
	var ln *link
	if !c.closed {
		c.closed = true
		c.closeErr = err
		close(c.done)
		if !c.eventsClosed {
			c.eventsClosed = true
			close(c.events)
		}
		ln, c.ln = c.ln, nil
	}
	c.mu.Unlock()
	if ln != nil {
		ln.fail(err)
	}
}

// pushEvent forwards a server notification onto the events channel.
// The eventsClosed check and the send share c.mu with permanentClose,
// which is what makes the close race-free.
func (c *Client) pushEvent(ev *wire.JobEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eventsClosed {
		return
	}
	select {
	case c.events <- ev:
	default: // best-effort: a full buffer drops
	}
}

// Session returns the server-assigned session name from the most
// recent handshake — the owner of jobs submitted on the current
// connection.  A reconnect starts a fresh session with a fresh name.
func (c *Client) Session() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.welcome == nil {
		return ""
	}
	return c.welcome.Session
}

// Storage reports the server's storage backend name ("mem", "file")
// from the Welcome envelope — empty when the server predates it.
func (c *Client) Storage() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.welcome == nil {
		return ""
	}
	return c.welcome.Storage
}

// Degraded reports whether the server announced a degraded (read-only)
// store at the most recent handshake.  Live health is what ping is
// for; this is the at-connect snapshot.
func (c *Client) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.welcome != nil && c.welcome.Degraded
}

// Reconnects reports how many times the client has replaced a dead
// connection — a chaos test's proof that the weather actually hit.
func (c *Client) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Role reports the server's cluster role ("leader", "follower") from
// the most recent handshake; empty outside a cluster.
func (c *Client) Role() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.welcome == nil {
		return ""
	}
	return c.welcome.Role
}

// Leader reports the cluster leader's address as the most recent
// handshake announced it; empty outside a cluster.
func (c *Client) Leader() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.welcome == nil {
		return ""
	}
	return c.welcome.Leader
}

// Failovers reports how many times the client moved between endpoints
// — by dial rotation off a dead daemon or by not-leader redirect.
func (c *Client) Failovers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers
}

// Events is the notification stream: one JobEvent per lifecycle
// transition of the current connection's jobs, when Options.Notify
// subscribed to them; otherwise it stays open and receives nothing.
// The channel closes when the client closes for good (Close, or any
// connection failure when retries are disabled).  Events are
// best-effort (a full buffer drops); status and wait are the
// authoritative record.  The first call starts a read loop on every
// connection from then on, so that a hang-up closes the channel even
// while no call is in flight.
func (c *Client) Events() <-chan *wire.JobEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.watched {
		c.watched = true
		c.watchLocked()
	}
	return c.events
}

// Close tears the client down.  In-flight Do calls fail with
// ErrClientClosed and the Events channel closes.
func (c *Client) Close() error {
	c.permanentClose(ErrClientClosed)
	return nil
}

// readLoop holds the link's read role for good, once it gets it: every
// reply goes to its waiting caller, every notification to Events.  A
// read or decode error retires the link.
func (ln *link) readLoop() {
	ln.mu.Lock()
	if ln.reading {
		turn := make(chan struct{}, 1)
		ln.turn = turn
		ln.mu.Unlock()
		select {
		case <-turn:
		case <-ln.done:
			return
		}
	} else {
		ln.reading = true
		ln.mu.Unlock()
	}
	_, err := ln.readFrames(ln.nc, 0)
	ln.cl.drop(ln, fmt.Errorf("%w: %w", ErrClientClosed, err))
}

// readFrames reads frames from r until the reply to id arrives,
// dispatching every other one; id 0 reads until r fails.  Only the read
// role's holder calls it.
func (ln *link) readFrames(r io.Reader, id uint64) (*wire.Response, error) {
	var rerr error
	for {
		payload, ok, err := ln.fr.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			if rerr != nil {
				return nil, rerr
			}
			rerr = ln.fr.Fill(r)
			continue
		}
		resp, err := wire.ParseResponse(payload)
		if err != nil {
			return nil, err
		}
		if resp.ID != 0 && resp.ID == id {
			return resp, nil
		}
		ln.dispatch(resp)
	}
}

// dispatch delivers a frame read for someone else: a notification to
// Events, a reply to its caller.  A reply nobody waits for — its caller
// gave up — is dropped.
func (ln *link) dispatch(resp *wire.Response) {
	if resp.ID == 0 {
		if resp.Event != nil {
			ln.cl.pushEvent(resp.Event)
		}
		return
	}
	ln.mu.Lock()
	if w, ok := ln.pending[resp.ID]; ok {
		if w.ch != nil {
			w.ch <- resp
			delete(ln.pending, resp.ID)
		} else {
			ln.pending[resp.ID] = waiter{resp: resp}
		}
	}
	ln.mu.Unlock()
}

// passRoleLocked hands the read role on: to the read loop when it waits
// for it, else to any caller still waiting for its reply; with nobody
// waiting the role is free.
func (ln *link) passRoleLocked() {
	if ln.turn != nil {
		ln.turn <- struct{}{}
		ln.turn = nil
		return
	}
	for _, w := range ln.pending {
		if w.ch != nil {
			w.ch <- roleGrant
			return
		}
	}
	ln.reading = false
}

// hold reads for the caller of id, who holds the read role, until its
// reply arrives, then passes the role on.  When ctx ends first, a read
// deadline in the past cuts the blocked read short; whatever the race,
// the deadline is cleared before the role moves, and the bytes of a
// half-read frame stay for the next holder.
func (ln *link) hold(ctx context.Context, id uint64) (*wire.Response, error) {
	var stop func() bool
	if ctx.Done() != nil {
		ln.mu.Lock()
		ln.armed++
		gen := ln.armed
		ln.mu.Unlock()
		stop = context.AfterFunc(ctx, func() {
			ln.mu.Lock()
			if ln.armed == gen {
				ln.nc.SetReadDeadline(aLongTimeAgo)
			}
			ln.mu.Unlock()
		})
	}
	resp, err := ln.readFrames(ln.nc, id)
	ln.mu.Lock()
	if stop != nil && !stop() {
		ln.armed++ // a callback yet to take the lock finds itself stale
		ln.nc.SetReadDeadline(time.Time{})
	}
	delete(ln.pending, id)
	ln.passRoleLocked()
	ln.mu.Unlock()
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, errs.Cancelled(ctx)
		}
		ln.cl.drop(ln, fmt.Errorf("%w: %w", ErrClientClosed, err))
		return nil, ln.failure()
	}
	return resp, nil
}

// aLongTimeAgo is a read deadline that has passed.
var aLongTimeAgo = time.Unix(1, 0)

// drain reads what has already arrived on a link, without waiting for
// more, dispatches it and passes the read role on.  It is how a hang-up
// while no call was in flight shows before the next send.  Only the read
// role's holder calls it.  A link found dead is failed with the plain
// error before the role moves: other callers' frames may have gone out,
// so only the drainer's own request, which did not, is marked unsent.
func (ln *link) drain() error {
	_, err := ln.readFrames(ln.now, 0)
	if err == errWouldBlock {
		err = nil
	}
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrClientClosed, err)
		ln.fail(err)
	}
	ln.mu.Lock()
	ln.passRoleLocked()
	ln.mu.Unlock()
	if err != nil {
		return unsent{err}
	}
	return nil
}

// fail marks the link dead and releases its waiters, once.  A reply
// already parked for its caller stays there.
func (ln *link) fail(err error) {
	ln.mu.Lock()
	if ln.err == nil {
		ln.err = err
		close(ln.done)
	}
	ln.mu.Unlock()
	ln.nc.Close()
}

// failure returns the recorded link failure.
func (ln *link) failure() error {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.err != nil {
		return ln.err
	}
	return ErrClientClosed
}

// roundTrip sends one request on this link and waits for its response.
// When the read role is free the link is drained first: a connection
// found dead there fails as unsent, since nothing went out on it.
func (ln *link) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	ln.mu.Lock()
	if ln.err != nil {
		err := ln.err
		ln.mu.Unlock()
		return nil, err
	}
	ln.nextID++
	id := ln.nextID
	req.ID = id
	ln.pending[id] = waiter{}
	drain := ln.now != nil && !ln.reading
	if drain {
		ln.reading = true
	}
	ln.mu.Unlock()

	if drain {
		if err := ln.drain(); err != nil {
			ln.mu.Lock()
			delete(ln.pending, id)
			ln.mu.Unlock()
			return nil, err
		}
	}

	// The frame is encoded in place in the write buffer's free space.
	ln.wmu.Lock()
	frame, encErr := wire.AppendRequest(ln.bw.AvailableBuffer(), req)
	err := encErr
	if err == nil {
		if _, err = ln.bw.Write(frame); err == nil {
			err = ln.bw.Flush()
		}
	}
	ln.wmu.Unlock()
	if err != nil {
		ln.mu.Lock()
		delete(ln.pending, id)
		ln.mu.Unlock()
		if encErr != nil {
			return nil, unsendable{encErr}
		}
		return nil, fmt.Errorf("%w: %w", ErrClientClosed, err)
	}
	return ln.await(ctx, id)
}

// await gets the reply to id: parked by a reader that came across it,
// read by the caller itself when the read role is free, else waited for
// — the reply, or the role, whichever comes to it first.
func (ln *link) await(ctx context.Context, id uint64) (*wire.Response, error) {
	ln.mu.Lock()
	if w := ln.pending[id]; w.resp != nil {
		delete(ln.pending, id)
		ln.mu.Unlock()
		return w.resp, nil
	}
	if ln.err != nil {
		delete(ln.pending, id)
		ln.mu.Unlock()
		return nil, ln.failure()
	}
	if !ln.reading {
		ln.reading = true
		ln.mu.Unlock()
		return ln.hold(ctx, id)
	}
	ch := make(chan *wire.Response, 1)
	ln.pending[id] = waiter{ch: ch}
	ln.mu.Unlock()

	select {
	case resp := <-ch:
		if resp == roleGrant {
			return ln.hold(ctx, id)
		}
		return resp, nil
	case <-ln.done:
		// quit is answered and then the server hangs up: the reader hands
		// the reply over before it sees the EOF, so when both are ready
		// the reply wins.
		select {
		case resp := <-ch:
			if resp != roleGrant {
				return resp, nil
			}
		default:
		}
		return nil, ln.failure()
	case <-ctx.Done():
		ln.mu.Lock()
		delete(ln.pending, id)
		select {
		case resp := <-ch:
			if resp == roleGrant {
				ln.passRoleLocked()
			}
		default:
		}
		ln.mu.Unlock()
		return nil, errs.Cancelled(ctx)
	}
}

// unsendable marks a request no frame can carry (a NaN field, a command
// outside the verb table): nothing was sent and the link is as good as it
// was, so the caller gets the codec's error and nothing is retried.
type unsendable struct{ error }

// unsent marks a link found dead before the request went out on it — a
// hang-up while the client was idle: like a dial failure, it is retried
// whatever the verb.
type unsent struct{ error }

func (e unsent) Unwrap() error { return e.error }

// errRedirected marks a link retired because a follower pointed us at
// the leader — bookkeeping, not a transport failure.
var errRedirected = errors.New("client: redirected to cluster leader")

// roundTrip runs one request through the retry machinery: dial
// failures retry for any verb (nothing was sent), link failures after
// the send retry only when the verb is replayable, context
// cancellations and per-attempt deadlines never retry.  A not-leader
// refusal retries any verb — the server refuses before executing — by
// re-dialing toward the advertised leader.
func (c *Client) roundTrip(ctx context.Context, cmd command.Command, idem, deadlineExempt bool) (*wire.Response, error) {
	attempts := 0
	for {
		ln, err := c.live(ctx)
		if err == nil {
			actx, cancel := ctx, context.CancelFunc(nil)
			if t := c.opts.RequestTimeout; t > 0 && !deadlineExempt {
				actx, cancel = context.WithTimeout(ctx, t)
			}
			var resp *wire.Response
			resp, err = ln.roundTrip(actx, &wire.Request{Cmd: cmd})
			if cancel != nil {
				cancel()
			}
			if bad := (unsendable{}); errors.As(err, &bad) {
				return nil, bad.error
			}
			if err == nil {
				e := resp.Error
				if e == nil || e.Code != wire.CodeNotLeader || c.opts.MaxRetries == 0 {
					return resp, nil
				}
				// Follower refused before execution: chase the leader and
				// replay, whatever the verb.  With retries disabled the
				// caller got the not-leader RemoteError above instead.
				c.redirect(ln, e.Leader)
				err = fmt.Errorf("%w (%s)", errRedirected, e.Message)
			} else {
				if errors.Is(err, errs.ErrCancelled) {
					return nil, err // the caller's context or our deadline, not weather
				}
				bad := unsent{}
				sent := !errors.As(err, &bad)
				if !sent {
					err = bad.error // the mark is this call's alone, never the link's
				}
				c.drop(ln, err)
				c.mu.Lock()
				closed := c.closed
				closeErr := c.closeErr
				c.mu.Unlock()
				if closed { // retries disabled: first failure is final
					return nil, closeErr
				}
				if sent && !idem {
					return nil, err // may have reached the server; never replay
				}
			}
		}
		attempts++
		c.mRetries.Inc()
		if attempts > c.opts.MaxRetries {
			if c.opts.MaxRetries == 0 {
				return nil, err
			}
			return nil, &RetryError{Attempts: attempts, Last: err}
		}
		if serr := c.backoff(ctx, attempts); serr != nil {
			return nil, serr
		}
	}
}

// redirect retires the link to a non-leader and aims the next dial at
// the advertised leader address, learning it if the caller's endpoint
// list did not include it.  Without a hint (no leader known yet —
// mid-takeover) the next endpoint in the rotation is tried instead.
func (c *Client) redirect(ln *link, leader string) {
	c.mu.Lock()
	if leader != "" {
		found := -1
		for i, a := range c.addrs {
			if a == leader {
				found = i
				break
			}
		}
		if found < 0 {
			c.addrs = append(c.addrs, leader)
			found = len(c.addrs) - 1
		}
		c.cur = found
	} else {
		c.cur = (c.cur + 1) % len(c.addrs)
	}
	c.failovers++
	c.mu.Unlock()
	c.mFailovers.Inc()
	c.drop(ln, errRedirected)
}

// maxBackoff caps the retry backoff's growth.
const maxBackoff = 2 * time.Second

// backoff sleeps the exponential-with-jitter delay before retry n,
// aborting early on context death or client close.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := c.opts.BaseBackoff << (attempt - 1)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return errs.Cancelled(ctx)
	case <-c.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.closeErr
	case <-t.C:
		return nil
	}
}

// Do executes one typed command on the server and returns its typed
// result — the same surface as auvm.Session.Do, over the wire.  The
// result struct round-trips the codec, so its String rendering is
// byte-identical to local execution; a server-side failure comes back
// as a *RemoteError.
func (c *Client) Do(ctx context.Context, cmd command.Command) (command.Result, error) {
	if cmd == nil {
		return nil, errs.Usage("wire: nil command")
	}
	props := command.PropsOf(cmd)
	resp, err := c.roundTrip(ctx, cmd, props.Has(command.Replayable), props.Has(command.Blocks))
	if err != nil {
		return nil, err
	}
	res := resp.Res
	if res == nil && len(resp.Result) > 0 { // a frame off the general path
		if res, err = command.UnmarshalResult(resp.Result); err != nil {
			return nil, err
		}
	}
	if resp.Error != nil {
		return res, &RemoteError{Code: resp.Error.Code, Message: resp.Error.Message}
	}
	return res, nil
}

// Execute interprets one command line remotely: parse locally (the
// identical parser, so usage errors match local ones), Do on the
// server, render the result — the network twin of
// auvm.Session.Execute.
func (c *Client) Execute(ctx context.Context, line string) (string, error) {
	cmd, err := command.Parse(line)
	if err != nil {
		return "", err
	}
	if cmd == nil { // blank line or comment
		return "", nil
	}
	res, err := c.Do(ctx, cmd)
	if res == nil {
		return "", err
	}
	return res.String(), err
}

// Run drives the remote session as a REPL, mirroring auvm.Session.Run
// line for line: output then `error: ...` lines, quit returns nil.
// When notify is true, the job-state notifications Options.Notify
// subscribed to print as they arrive, interleaved between command
// outputs.
func (c *Client) Run(ctx context.Context, r io.Reader, w io.Writer, notify bool) error {
	var wmu sync.Mutex
	if notify {
		go func() {
			for ev := range c.Events() {
				wmu.Lock()
				fmt.Fprintln(w, ev)
				wmu.Unlock()
			}
		}()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		out, err := c.Execute(ctx, sc.Text())
		wmu.Lock()
		if out != "" {
			fmt.Fprintln(w, out)
		}
		if errors.Is(err, auvm.ErrQuit) {
			wmu.Unlock()
			return nil
		}
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
		}
		wmu.Unlock()
		if ctx.Err() != nil {
			return errs.Cancelled(ctx)
		}
	}
	return sc.Err()
}
