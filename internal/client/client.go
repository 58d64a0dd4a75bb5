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
// because nothing was sent.  Note that a reconnect is a fresh server
// session: workspace state (models, the session name) does not carry
// over, which is exactly why only global verbs replay.
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
	"strings"
	"sync"
	"time"

	"repro/internal/auvm"
	"repro/internal/cluster"
	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/store"
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

// Is maps the wire code onto the sentinel taxonomy.
func (e *RemoteError) Is(target error) bool {
	switch e.Code {
	case wire.CodeUsage:
		return target == errs.ErrUsage
	case wire.CodeNotFound:
		return target == errs.ErrNotFound
	case wire.CodeCancelled:
		return target == errs.ErrCancelled
	case wire.CodeQuota:
		return target == job.ErrQuota
	case wire.CodeClosed:
		return target == job.ErrClosed
	case wire.CodeDegraded:
		return target == store.ErrDegraded
	case wire.CodeNotLeader:
		return target == cluster.ErrNotLeader
	case wire.CodeQuit:
		return target == auvm.ErrQuit
	default:
		return false
	}
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
	// Without it the server sends none.
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
// pending-request map, its own failure.  A link failing releases only
// its own waiters; the Client above decides whether that failure is
// the end (MaxRetries 0) or just weather.
type link struct {
	cl *Client
	nc net.Conn

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *wire.Response
	err     error
	done    chan struct{}
}

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
	c.ln, c.welcome, c.everLinked = ln, w, true
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
		cl: c, nc: nc, bw: bufio.NewWriter(nc),
		pending: map[uint64]chan *wire.Response{},
		done:    make(chan struct{}),
	}
	go ln.readLoop()
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
	c.ln, c.welcome = ln, w
	if c.everLinked {
		c.reconnects++
		c.mReconnects.Inc()
	}
	c.everLinked = true
	c.mu.Unlock()
	return ln, nil
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
// authoritative record.
func (c *Client) Events() <-chan *wire.JobEvent { return c.events }

// Close tears the client down.  In-flight Do calls fail with
// ErrClientClosed and the Events channel closes.
func (c *Client) Close() error {
	c.permanentClose(ErrClientClosed)
	return nil
}

// readLoop dispatches one link's inbound frames: notifications to the
// client's events channel, responses to their waiting callers.  A
// decode error retires the link.
func (ln *link) readLoop() {
	br := bufio.NewReader(ln.nc)
	for {
		resp, err := wire.DecodeResponse(br)
		if err != nil {
			ln.cl.drop(ln, fmt.Errorf("%w: %w", ErrClientClosed, err))
			return
		}
		if resp.ID == 0 {
			if resp.Event != nil {
				ln.cl.pushEvent(resp.Event)
			}
			continue
		}
		ln.mu.Lock()
		ch := ln.pending[resp.ID]
		delete(ln.pending, resp.ID)
		ln.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// fail marks the link dead and releases its waiters, once.
func (ln *link) fail(err error) {
	ln.mu.Lock()
	if ln.err == nil {
		ln.err = err
		close(ln.done)
		ln.pending = nil
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
func (ln *link) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	ch := make(chan *wire.Response, 1)
	ln.mu.Lock()
	if ln.err != nil {
		err := ln.err
		ln.mu.Unlock()
		return nil, err
	}
	ln.nextID++
	req.ID = ln.nextID
	ln.pending[req.ID] = ch
	ln.mu.Unlock()

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
		if ln.pending != nil {
			delete(ln.pending, req.ID)
		}
		ln.mu.Unlock()
		if encErr != nil {
			return nil, unsendable{encErr}
		}
		return nil, fmt.Errorf("%w: %w", ErrClientClosed, err)
	}

	select {
	case resp := <-ch:
		return resp, nil
	case <-ln.done:
		// quit is answered and then the server hangs up: the reader queued
		// the reply before it saw the EOF, so when both are ready the
		// reply wins.
		select {
		case resp := <-ch:
			return resp, nil
		default:
			return nil, ln.failure()
		}
	case <-ctx.Done():
		ln.mu.Lock()
		if ln.pending != nil {
			delete(ln.pending, req.ID)
		}
		ln.mu.Unlock()
		return nil, errs.Cancelled(ctx)
	}
}

// unsendable marks a request no frame can carry (a NaN field, a command
// outside the verb table): nothing was sent and the link is as good as it
// was, so the caller gets the codec's error and nothing is retried.
type unsendable struct{ error }

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
				c.drop(ln, err)
				c.mu.Lock()
				closed := c.closed
				closeErr := c.closeErr
				c.mu.Unlock()
				if closed { // retries disabled: first failure is final
					return nil, closeErr
				}
				if !idem {
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
