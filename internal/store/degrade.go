package store

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/obs"
)

// ErrDegraded is returned by writes while the guard holds the store in
// read-only mode.  The server maps it to the wire code "degraded".
var ErrDegraded = errs.ErrDegraded

const (
	// GuardThreshold is how many consecutive write failures trip the
	// guard.  One flaky sector should not take a daemon read-only; three
	// in a row is no longer flaky.
	GuardThreshold = 3
	// GuardDefaultProbeInterval is how often the background probe
	// retries a write while degraded.
	GuardDefaultProbeInterval = 250 * time.Millisecond
)

// GuardOpts parameterizes NewGuard.
type GuardOpts struct {
	// ProbeInterval is the cadence of the background recovery probe,
	// GuardDefaultProbeInterval when zero.  Negative disables the
	// background probe entirely (tests drive recovery through Probe
	// instead).
	ProbeInterval time.Duration
	// OnChange, when non-nil, is called (off the caller's lock, on the
	// goroutine that flipped the state) with true when the guard trips
	// and false when it recovers.  The daemon logs from it.
	OnChange func(degraded bool)
}

// Guard wraps a backend with the graceful-degradation policy: when
// writes keep failing, stop crashing the layers above and turn the
// store read-only instead.
//
//   - A write error (Put/Delete/Batch, excluding ErrClosed) counts one
//     consecutive failure; a success resets the count.  At GuardThreshold
//     consecutive failures the guard trips: it is now *degraded*.
//   - While degraded, writes fail fast with ErrDegraded without
//     touching the backend; reads pass through untouched (the backend's
//     map or index still serves).
//   - A background probe retries a tiny write (KeyProbe) every
//     ProbeInterval; the first success re-arms writes and the guard
//     reports healthy again.  Probe does the same synchronously for
//     deterministic tests.
//
// Guard sits directly on the backend, under the cluster fence when there
// is one: every read and write of the store stack passes it, so it also
// times them (the store.get/put/batch histograms, see SetObs).
type Guard struct {
	inner Conditional
	opts  GuardOpts

	mu       sync.Mutex
	fails    int // consecutive write failures while healthy
	degraded bool
	probes   int64 // probe attempts while degraded (diagnostics)
	trips    int64 // how many times the guard has tripped
	closed   bool
	stop     chan struct{} // closes the probe goroutine, non-nil while probing
	// trippedAt is when the current degraded episode began (zero while
	// healthy); recovery folds the episode into mDegradedSecs.
	trippedAt time.Time

	// obs mirrors (SetObs): trip count, live degraded gauge, whole
	// seconds spent degraded across completed episodes, and the operation
	// latencies.  Nil no-op sinks until routed.
	mTrips             *obs.Counter
	mDegradedSecs      *obs.Counter
	gDegraded          *obs.Gauge
	hGet, hPut, hBatch *obs.Histogram
}

// NewGuard wraps inner with the degradation policy.
func NewGuard(inner Conditional, opts GuardOpts) *Guard {
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = GuardDefaultProbeInterval
	}
	return &Guard{inner: inner, opts: opts}
}

// SetObs routes the guard's metrics through reg: the trip count that
// previously only Trips could read, a live degraded gauge, the seconds
// spent degraded (completed episodes; an episode still open shows on the
// gauge, not the counter), and the latency of every Get, Put and batch
// that passes.  A Put counts in store.put and store.batch, a Delete or a
// BatchIf in store.batch.  Call it before traffic; nil reg reverts to
// no-op sinks.
func (g *Guard) SetObs(reg *obs.Registry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mTrips = reg.Counter(obs.StoreGuardTrips)
	g.mDegradedSecs = reg.Counter(obs.StoreDegradedSeconds)
	g.gDegraded = reg.Gauge(obs.StoreDegraded)
	g.hGet = reg.Histogram(obs.StoreGetLatency)
	g.hPut = reg.Histogram(obs.StorePutLatency)
	g.hBatch = reg.Histogram(obs.StoreBatchLatency)
	if g.degraded {
		g.gDegraded.Set(1)
	}
}

// Degraded reports whether the guard currently refuses writes.
func (g *Guard) Degraded() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.degraded
}

// Trips reports how many times the guard has entered degraded mode.
func (g *Guard) Trips() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.trips
}

// Get passes reads through: degraded mode is read-only, not read-never.
func (g *Guard) Get(key string) ([]byte, error) {
	start := time.Now()
	defer func() { g.hGet.Observe(time.Since(start)) }()
	return g.inner.Get(key)
}

// Has passes through like Get; it reads no value, so store.get does not
// count it.
func (g *Guard) Has(key string) (bool, error) { return g.inner.Has(key) }

// Seek passes through like Get.
func (g *Guard) Seek(prefix string, fn func(key string, value []byte) bool) error {
	return g.inner.Seek(prefix, fn)
}

func (g *Guard) Put(key string, value []byte) error {
	start := time.Now()
	defer func() { g.hPut.Observe(time.Since(start)) }()
	return g.write(func() error { return g.inner.Put(key, value) })
}

func (g *Guard) Delete(key string) error {
	return g.write(func() error { return g.inner.Delete(key) })
}

func (g *Guard) Batch(ops []Op) error {
	return g.write(func() error { return g.inner.Batch(ops) })
}

// BatchIf runs the conditional batch under the write policy.  A
// conflict is an outcome, not a store-health failure — see write.
func (g *Guard) BatchIf(key string, want []byte, ops []Op) error {
	return g.write(func() error { return g.inner.BatchIf(key, want, ops) })
}

// write runs one backend write under the policy, timing it as a batch.
func (g *Guard) write(op func() error) error {
	start := time.Now()
	defer func() { g.hBatch.Observe(time.Since(start)) }()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	if g.degraded {
		g.mu.Unlock()
		return fmt.Errorf("%w: writes refused until the backend recovers", ErrDegraded)
	}
	g.mu.Unlock()

	err := op()

	g.mu.Lock()
	defer g.mu.Unlock()
	if err == nil {
		g.fails = 0
		return nil
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrNotFound) || errors.Is(err, ErrConflict) {
		return err // lifecycle, lookup, and lost-race outcomes are not store health
	}
	g.fails++
	if !g.degraded && g.fails >= GuardThreshold {
		g.tripLocked()
	}
	return err
}

// tripLocked flips to degraded and starts the probe.  Caller holds mu.
func (g *Guard) tripLocked() {
	g.degraded = true
	g.trips++
	g.fails = 0
	g.trippedAt = time.Now()
	g.mTrips.Inc()
	g.gDegraded.Set(1)
	if g.opts.ProbeInterval > 0 && !g.closed {
		g.stop = make(chan struct{})
		go g.probeLoop(g.stop, g.trips)
	}
	if f := g.opts.OnChange; f != nil {
		go f(true)
	}
}

// probeLoop retries the probe write until it lands, the guard closes,
// or a newer trip supersedes this loop.
func (g *Guard) probeLoop(stop chan struct{}, gen int64) {
	t := time.NewTicker(g.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if g.Probe() {
				return
			}
			g.mu.Lock()
			stale := g.closed || g.trips != gen
			g.mu.Unlock()
			if stale {
				return
			}
		}
	}
}

// Probe attempts one recovery write immediately and returns whether the
// guard is healthy afterwards.  While degraded it writes a counter
// value under KeyProbe straight to the backend; on success the guard
// re-arms.  On a healthy guard it is a no-op returning true.
func (g *Guard) Probe() bool {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return false
	}
	if !g.degraded {
		g.mu.Unlock()
		return true
	}
	g.probes++
	n := g.probes
	g.mu.Unlock()

	err := g.inner.Put(KeyProbe, []byte(strconv.FormatInt(n, 10)))

	g.mu.Lock()
	if err != nil || g.closed || !g.degraded {
		healthy := !g.degraded && !g.closed
		g.mu.Unlock()
		return healthy
	}
	g.degraded = false
	g.fails = 0
	if !g.trippedAt.IsZero() {
		g.mDegradedSecs.Add(int64(time.Since(g.trippedAt) / time.Second))
		g.trippedAt = time.Time{}
	}
	g.gDegraded.Set(0)
	if g.stop != nil {
		close(g.stop)
		g.stop = nil
	}
	g.mu.Unlock()
	if f := g.opts.OnChange; f != nil {
		go f(false)
	}
	return true
}

// Close stops the probe and closes the backend.
func (g *Guard) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	g.closed = true
	if g.stop != nil {
		close(g.stop)
		g.stop = nil
	}
	g.mu.Unlock()
	return g.inner.Close()
}
