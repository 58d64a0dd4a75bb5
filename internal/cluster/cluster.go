// Package cluster is the lease-based single-writer coordination layer
// that lets N fem2d daemons serve one shared store with automatic
// failover (docs/cluster.md).
//
// The protocol is deliberately small: the store itself is the only
// coordination medium.  One record under store.KeyLease names the
// current leader, its advertised address, a monotonically increasing
// epoch, and an expiry instant; a companion record under
// store.KeyEpoch holds just the epoch.  All lease transitions are
// compare-and-batch (store.Conditional) on the raw bytes of the lease
// record, so two contenders racing for an expired lease cannot both
// win — the store's one lock (and, for a shared file, the file lock)
// arbitrates.
//
// The epoch is the fencing token.  Every data write a leader performs
// goes through Fenced, which turns it into a BatchIf conditioned on
// store.KeyEpoch still holding the leader's epoch.  A takeover bumps
// the epoch in the same atomic batch that rewrites the lease, so a
// deposed leader's late write — scheduled before it learned it lost —
// fails with ErrConflict instead of corrupting the new leader's state.
// KeyEpoch changes only at takeover (renewals rewrite only KeyLease),
// so the leader's own renewal loop never races its write path.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// ErrNotLeader is returned by Fenced writes on a daemon that does not
// currently hold the lease.  The server maps it to the wire code
// "not-leader" with the leader's advertised address attached.
var ErrNotLeader = errors.New("cluster: not the leader")

// ErrFenced is returned when a write was rejected by the epoch check:
// this daemon held the lease once, but a takeover superseded its
// epoch.  It satisfies errors.Is(err, ErrNotLeader) so the layers
// above need only one test.
var ErrFenced = fmt.Errorf("%w: fenced by a newer epoch", ErrNotLeader)

// Record is the lease as stored under store.KeyLease, JSON-encoded.
// Epoch only ever increases; Expires is compared against the local
// clock, so the scheme assumes clocks skew less than the TTL (the
// usual lease caveat, stated in docs/cluster.md).
type Record struct {
	Epoch   int64  `json:"epoch"`
	Owner   string `json:"owner"`
	Addr    string `json:"addr"`
	Expires int64  `json:"expires_unix_nano"`
}

// expired reports whether the lease is takeable at instant now.  The
// boundary counts as expired: a lease with TTL t protects writes for
// strictly less than t, which keeps "renew exactly at TTL" and
// "acquire exactly at TTL" from both succeeding on the same reading.
func (r Record) expired(now time.Time) bool { return now.UnixNano() >= r.Expires }

// epochBytes is the KeyEpoch encoding: decimal ASCII.
func epochBytes(e int64) []byte { return []byte(strconv.FormatInt(e, 10)) }

// Defaults for Config's zero values.
const (
	DefaultTTL = 2 * time.Second
)

// Config parameterizes a Coordinator.
type Config struct {
	// Store is the handle lease I/O goes through.  It must sit *below*
	// the Fenced wrapper (lease writes are how epochs change; fencing
	// them would deadlock the protocol).  In core's layering this is the
	// degradation guard.
	Store store.Conditional
	// Owner names this daemon in the lease record (diagnostics only).
	Owner string
	// Advertise is the address written into the lease — what followers
	// hand to redirected clients.  Required.
	Advertise string
	// TTL is the lease lifetime; a leader that cannot renew within it
	// stops serving writes and a follower may take over.  Zero means
	// DefaultTTL.  The leader renews, and a follower polls, every TTL/3.
	TTL time.Duration
	// Refresh, when non-nil, is called before each follower poll so the
	// store stack folds in what the leader committed.  Core wires it to
	// the shared file handle's Refresh; over an in-process store there is
	// nothing to fold in.
	Refresh func() error
	// OnPromote runs on the coordinator goroutine after the lease is
	// won but before IsLeader turns true — the takeover window where
	// core seals the log, replays the journal, and rebuilds state.  An
	// error is logged, not fatal: a journal hiccup must not brick the
	// only willing leader.
	OnPromote func(epoch int64) error
	// OnDemote runs after IsLeader turned false, with a reason.
	OnDemote func(reason string)
	// Obs routes the leader gauge, epoch gauge, failover counter, and
	// renewal latency histogram; nil means no-op sinks.
	Obs *obs.Registry
	// Clock is the time source, injectable for the lease-edge tests.
	// Nil means time.Now.
	Clock func() time.Time
	// Logf logs coordination transitions; nil discards.
	Logf func(format string, args ...any)
}

// Coordinator runs the lease protocol for one daemon: as follower it
// watches the lease and tries to acquire once expired; as leader it
// renews on a cadence and self-demotes the instant it cannot prove
// ownership (a renewal conflict, or the TTL passing unrenewed).
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	leader  bool
	epoch   int64  // our epoch while leader; last observed otherwise
	expires int64  // our lease expiry (unix nanos) while leader
	lastRaw []byte // exact bytes of the lease record we last wrote
	obsAddr string // advertised address of the current leader, as observed
	closed  bool

	stop chan struct{}
	done chan struct{}

	gLeader    *obs.Gauge
	gEpoch     *obs.Gauge
	mFailovers *obs.Counter
	hRenew     *obs.Histogram
}

// New builds a Coordinator; call Start to run the protocol loop, or
// drive TryAcquire/Renew by hand (the edge-case tests do).
func New(cfg Config) *Coordinator {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Coordinator{
		cfg:        cfg,
		gLeader:    cfg.Obs.Gauge(obs.ClusterLeader),
		gEpoch:     cfg.Obs.Gauge(obs.ClusterEpoch),
		mFailovers: cfg.Obs.Counter(obs.ClusterFailovers),
		hRenew:     cfg.Obs.Histogram(obs.ClusterRenewLatency),
	}
}

// Start launches the protocol loop.  The first acquisition attempt
// happens synchronously, so a daemon started against an unowned store
// is leader before Start returns.
func (c *Coordinator) Start() {
	if _, err := c.TryAcquire(); err != nil {
		c.cfg.Logf("cluster: initial acquire: %v", err)
	}
	c.mu.Lock()
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	stop, done := c.stop, c.done
	c.mu.Unlock()
	go c.run(stop, done)
}

func (c *Coordinator) run(stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-time.After(c.cfg.TTL / 3):
		}
		if c.IsLeader() || c.leading() {
			if err := c.Renew(); err != nil && !errors.Is(err, ErrNotLeader) {
				c.cfg.Logf("cluster: renew: %v", err)
			}
		} else {
			if _, err := c.TryAcquire(); err != nil {
				c.cfg.Logf("cluster: acquire: %v", err)
			}
		}
	}
}

// leading reports the raw leader flag, ignoring expiry — the renew
// loop must keep renewing through a momentary expiry flicker (the CAS
// on the lease bytes, not the clock, decides whether renewal is
// legitimate).
func (c *Coordinator) leading() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leader
}

// Stop halts the loop and, when leader, releases the lease in place
// (rewrites it already-expired) so a graceful restart hands over
// without waiting out the TTL.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	stop, done := c.stop, c.done
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	c.mu.Lock()
	wasLeader, last, epoch := c.leader, c.lastRaw, c.epoch
	c.mu.Unlock()
	if wasLeader && last != nil {
		rec := Record{Epoch: epoch, Owner: c.cfg.Owner, Addr: c.cfg.Advertise,
			Expires: c.cfg.Clock().UnixNano()}
		if raw, err := json.Marshal(rec); err == nil {
			// Best effort: a conflict just means somebody already took over.
			_ = c.cfg.Store.BatchIf(store.KeyLease, last, []store.Op{store.Put(store.KeyLease, raw)})
		}
		c.demote("stopped")
	}
}

// Abandon halts the protocol loop without releasing the lease — the
// in-process stand-in for a crashed leader.  The lease is left to
// expire on its own, so a follower's takeover after Abandon exercises
// the same path as one after kill -9.  The failover benchmark and
// chaos tests are the callers.
func (c *Coordinator) Abandon() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	stop, done := c.stop, c.done
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// IsLeader reports whether this daemon may serve writes right now:
// it holds the lease and the lease has not expired by the local
// clock.  The expiry check is what makes lease loss an *immediate*
// self-demotion — a leader cut off from the store stops answering
// writes the instant its last renewal ages out, before any follower
// could have taken over.
func (c *Coordinator) IsLeader() bool {
	_, ok := c.Serving()
	return ok
}

// Serving returns the epoch to fence writes with, and whether this
// daemon currently holds a live lease.
func (c *Coordinator) Serving() (epoch int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.leader {
		return c.epoch, false
	}
	if c.cfg.Clock().UnixNano() >= c.expires {
		return c.epoch, false
	}
	return c.epoch, true
}

// Epoch returns the current epoch as this daemon knows it.
func (c *Coordinator) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// LeaderAddr returns the advertised address of the current leader as
// last observed — our own when leading, the lease record's otherwise.
// Empty when no live leader has been seen.
func (c *Coordinator) LeaderAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leader {
		return c.cfg.Advertise
	}
	return c.obsAddr
}

// Role renders the daemon's cluster role for version/Welcome.
func (c *Coordinator) Role() string {
	if c.IsLeader() {
		return "leader"
	}
	return "follower"
}

// TryAcquire makes one acquisition attempt: refresh, read the lease,
// and — if absent or expired — CAS in a fresh record with the next
// epoch.  Returns whether this daemon is leader afterwards.  Losing
// the race to another contender is a clean false, not an error.
func (c *Coordinator) TryAcquire() (bool, error) {
	if c.leading() {
		return true, nil
	}
	if c.cfg.Refresh != nil {
		if err := c.cfg.Refresh(); err != nil {
			return false, err
		}
	}
	now := c.cfg.Clock()
	raw, err := c.cfg.Store.Get(store.KeyLease)
	var cur Record
	held := false
	switch {
	case err == nil:
		if uerr := json.Unmarshal(raw, &cur); uerr != nil {
			return false, fmt.Errorf("cluster: corrupt lease record: %w", uerr)
		}
		held = true
	case errors.Is(err, store.ErrNotFound):
		raw = nil
	default:
		return false, err
	}
	if held && !cur.expired(now) {
		// Live leader elsewhere: remember where to redirect clients.
		c.mu.Lock()
		c.epoch = cur.Epoch
		c.obsAddr = cur.Addr
		c.mu.Unlock()
		c.gEpoch.Set(cur.Epoch)
		return false, nil
	}
	next := Record{
		Epoch:   cur.Epoch + 1,
		Owner:   c.cfg.Owner,
		Addr:    c.cfg.Advertise,
		Expires: now.Add(c.cfg.TTL).UnixNano(),
	}
	nraw, err := json.Marshal(next)
	if err != nil {
		return false, err
	}
	err = c.cfg.Store.BatchIf(store.KeyLease, raw, []store.Op{
		store.Put(store.KeyLease, nraw),
		store.Put(store.KeyEpoch, epochBytes(next.Epoch)),
	})
	if errors.Is(err, store.ErrConflict) {
		return false, nil // another contender won; stay follower
	}
	if err != nil {
		return false, err
	}
	if held {
		// Took over from a dead leader — this is the failover the
		// benchmark times.
		c.mFailovers.Inc()
		c.cfg.Logf("cluster: took over lease from %s (epoch %d -> %d)", cur.Owner, cur.Epoch, next.Epoch)
	} else {
		c.cfg.Logf("cluster: acquired fresh lease (epoch %d)", next.Epoch)
	}
	if c.cfg.OnPromote != nil {
		// Promotion work (seal, journal replay) runs with the lease won
		// but writes still refused: IsLeader stays false until below.
		if perr := c.cfg.OnPromote(next.Epoch); perr != nil {
			c.cfg.Logf("cluster: promotion recovery: %v", perr)
		}
	}
	c.mu.Lock()
	c.leader = true
	c.epoch = next.Epoch
	c.expires = next.Expires
	c.lastRaw = nraw
	c.obsAddr = c.cfg.Advertise
	c.mu.Unlock()
	c.gLeader.Set(1)
	c.gEpoch.Set(next.Epoch)
	return true, nil
}

// Renew extends the lease by one TTL.  The compare is on the exact
// bytes of our last lease write: if anything else touched the record —
// a takeover — renewal conflicts and we demote instead.  Renewal does
// not consult the clock: at exactly TTL the CAS still decides, so a
// leader that paused right up to the boundary either renews cleanly
// (nobody took over) or learns it was deposed, never both.
func (c *Coordinator) Renew() error {
	c.mu.Lock()
	if !c.leader {
		c.mu.Unlock()
		return ErrNotLeader
	}
	last, epoch := c.lastRaw, c.epoch
	c.mu.Unlock()
	now := c.cfg.Clock()
	next := Record{
		Epoch:   epoch,
		Owner:   c.cfg.Owner,
		Addr:    c.cfg.Advertise,
		Expires: now.Add(c.cfg.TTL).UnixNano(),
	}
	nraw, err := json.Marshal(next)
	if err != nil {
		return err
	}
	start := time.Now()
	err = c.cfg.Store.BatchIf(store.KeyLease, last, []store.Op{store.Put(store.KeyLease, nraw)})
	c.hRenew.Observe(time.Since(start))
	if errors.Is(err, store.ErrConflict) {
		c.demote("lease taken over")
		return fmt.Errorf("%w: lease taken over during renewal", ErrNotLeader)
	}
	if err != nil {
		// Store trouble.  Keep the old expiry: if renewals keep failing,
		// Serving goes false at TTL and writes stop by themselves.
		return err
	}
	c.mu.Lock()
	c.lastRaw = nraw
	c.expires = next.Expires
	c.mu.Unlock()
	return nil
}

// demote flips to follower and tells core.
func (c *Coordinator) demote(reason string) {
	c.mu.Lock()
	if !c.leader {
		c.mu.Unlock()
		return
	}
	c.leader = false
	c.lastRaw = nil
	c.mu.Unlock()
	c.gLeader.Set(0)
	c.cfg.Logf("cluster: demoted: %s", reason)
	if c.cfg.OnDemote != nil {
		c.cfg.OnDemote(reason)
	}
}

// Fence is the takeover-side notification: a Fenced write discovered
// our epoch is stale.  Demote immediately.
func (c *Coordinator) fence() { c.demote("fenced by newer epoch") }
