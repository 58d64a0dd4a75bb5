package cluster_test

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// fakeClock is the injectable time source for the lease-edge tests:
// nothing moves unless the test advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// coordOver builds a hand-driven Coordinator (Start never called, so
// TryAcquire/Renew run only when the test says).
func coordOver(st store.Conditional, owner, addr string, ttl time.Duration, clock *fakeClock, reg *obs.Registry) *cluster.Coordinator {
	cfg := cluster.Config{Store: st, Owner: owner, Advertise: addr, TTL: ttl, Obs: reg}
	if clock != nil {
		cfg.Clock = clock.Now
	}
	return cluster.New(cfg)
}

func storedEpoch(t *testing.T, st store.Store) int64 {
	t.Helper()
	raw, err := st.Get(store.KeyEpoch)
	if err != nil {
		t.Fatalf("read %s: %v", store.KeyEpoch, err)
	}
	n, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		t.Fatalf("parse %s = %q: %v", store.KeyEpoch, raw, err)
	}
	return n
}

func TestAcquireFreshLease(t *testing.T) {
	st := store.NewMemStore()
	defer st.Close()
	c := coordOver(st, "a", "a:1", time.Second, nil, nil)
	ok, err := c.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("TryAcquire = %v, %v, want true, nil", ok, err)
	}
	if !c.IsLeader() || c.Epoch() != 1 || c.Role() != "leader" {
		t.Fatalf("leader=%v epoch=%d role=%s after fresh acquire", c.IsLeader(), c.Epoch(), c.Role())
	}
	if c.LeaderAddr() != "a:1" {
		t.Fatalf("LeaderAddr = %q, want a:1", c.LeaderAddr())
	}
	if e := storedEpoch(t, st); e != 1 {
		t.Fatalf("stored epoch = %d, want 1", e)
	}
	// A second daemon sees a live lease: stays follower, learns the
	// leader's address for redirects.
	f := coordOver(st, "b", "b:1", time.Second, nil, nil)
	ok, err = f.TryAcquire()
	if err != nil || ok {
		t.Fatalf("follower TryAcquire = %v, %v, want false, nil", ok, err)
	}
	if f.Role() != "follower" || f.LeaderAddr() != "a:1" || f.Epoch() != 1 {
		t.Fatalf("follower role=%s leaderAddr=%q epoch=%d", f.Role(), f.LeaderAddr(), f.Epoch())
	}
}

// Stop releases the lease in place, so a graceful handover does not
// wait out the TTL — and the successor counts it as a failover (it
// took over a held lease).
func TestStopReleasesLeaseForImmediateTakeover(t *testing.T) {
	st := store.NewMemStore()
	defer st.Close()
	a := coordOver(st, "a", "a:1", time.Hour, nil, nil)
	if ok, _ := a.TryAcquire(); !ok {
		t.Fatal("a did not acquire")
	}
	a.Stop()
	if a.IsLeader() {
		t.Fatal("a still leader after Stop")
	}

	reg := obs.New()
	b := coordOver(st, "b", "b:1", time.Hour, nil, reg)
	ok, err := b.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("b TryAcquire after release = %v, %v, want true, nil", ok, err)
	}
	if b.Epoch() != 2 {
		t.Fatalf("b epoch = %d, want 2", b.Epoch())
	}
	if got := reg.Counter(obs.ClusterFailovers).Load(); got != 1 {
		t.Fatalf("failover counter = %d, want 1 (takeover of a held lease)", got)
	}
	if e := storedEpoch(t, st); e != 2 {
		t.Fatalf("stored epoch = %d, want 2 after takeover", e)
	}
}

// Satellite edge 1: renewal exactly at TTL.  At the boundary the lease
// counts as expired — IsLeader goes false, writes stop — but renewal
// does not consult the clock: the CAS on the last-written bytes
// decides.  A leader paused right up to the boundary either renews
// cleanly (nobody took over) or learns it was deposed; never both.
func TestRenewalExactlyAtTTLBoundary(t *testing.T) {
	st := store.NewMemStore()
	defer st.Close()
	clock := newFakeClock()
	a := coordOver(st, "a", "a:1", time.Second, clock, nil)
	if ok, _ := a.TryAcquire(); !ok {
		t.Fatal("a did not acquire")
	}

	clock.Advance(time.Second) // exactly TTL
	if a.IsLeader() {
		t.Fatal("IsLeader true exactly at TTL; boundary must count as expired")
	}
	// Nobody took over: the CAS still matches, renewal recovers the
	// leadership without a new election.
	if err := a.Renew(); err != nil {
		t.Fatalf("Renew at boundary with lease intact: %v", err)
	}
	if !a.IsLeader() || a.Epoch() != 1 {
		t.Fatalf("leader=%v epoch=%d after boundary renewal, want true, 1", a.IsLeader(), a.Epoch())
	}

	// Same boundary again, but this time a follower (same clock) grabs
	// the expired lease first: the late renewal must conflict and
	// demote, leaving exactly one leader.
	clock.Advance(time.Second)
	b := coordOver(st, "b", "b:1", time.Second, clock, nil)
	if ok, err := b.TryAcquire(); err != nil || !ok {
		t.Fatalf("b acquire at boundary = %v, %v, want true, nil", ok, err)
	}
	err := a.Renew()
	if !errors.Is(err, cluster.ErrNotLeader) {
		t.Fatalf("a.Renew after takeover = %v, want ErrNotLeader", err)
	}
	if a.IsLeader() || !b.IsLeader() {
		t.Fatalf("leaders after boundary race: a=%v b=%v, want false/true", a.IsLeader(), b.IsLeader())
	}
	if b.Epoch() != 2 || storedEpoch(t, st) != 2 {
		t.Fatalf("epoch after takeover = %d (stored %d), want 2", b.Epoch(), storedEpoch(t, st))
	}
}

// Satellite edge 2: two followers race for an expired lease.  One
// contender's CAS is slowed by seeded fault latency so both read the
// lease as takeable; the conditional batch, not luck, must let exactly
// one through.
func TestTwoFollowerAcquisitionRace(t *testing.T) {
	mem := store.NewMemStore()
	defer mem.Close()
	// a's conditional writes stall 50ms: it reads the empty lease, then
	// loses the CAS to b, which started later but isn't delayed.
	in := fault.NewInjector(7, fault.Rule{Op: fault.OpBatchIf, Fault: fault.Fault{Delay: 50 * time.Millisecond}})
	slow := fault.NewStore(mem, in)
	a := coordOver(slow, "a", "a:1", time.Hour, nil, nil)
	b := coordOver(mem, "b", "b:1", time.Hour, nil, nil)

	type res struct {
		ok  bool
		err error
	}
	aDone := make(chan res, 1)
	go func() {
		ok, err := a.TryAcquire()
		aDone <- res{ok, err}
	}()
	time.Sleep(10 * time.Millisecond) // a is inside its delayed CAS
	bOK, bErr := b.TryAcquire()
	aRes := <-aDone

	if bErr != nil || aRes.err != nil {
		t.Fatalf("errors from the race: a=%v b=%v", aRes.err, bErr)
	}
	if !bOK || aRes.ok {
		t.Fatalf("race outcome a=%v b=%v, want only b (a's CAS was stalled)", aRes.ok, bOK)
	}
	if aRes.ok == bOK {
		t.Fatal("both contenders won the lease")
	}
	if in.Calls(fault.OpBatchIf) == 0 {
		t.Fatal("a never reached its conditional write; the race did not happen")
	}
	if a.IsLeader() || !b.IsLeader() {
		t.Fatalf("leaders after race: a=%v b=%v", a.IsLeader(), b.IsLeader())
	}
	if storedEpoch(t, mem) != 1 {
		t.Fatalf("stored epoch = %d, want 1 (single acquisition)", storedEpoch(t, mem))
	}
	// The loser retries on its next poll and correctly observes b.
	if ok, err := a.TryAcquire(); err != nil || ok {
		t.Fatalf("loser's next attempt = %v, %v, want false, nil", ok, err)
	}
	if a.LeaderAddr() != "b:1" {
		t.Fatalf("loser's LeaderAddr = %q, want b:1", a.LeaderAddr())
	}
}

// Satellite edge 3: a fenced stale leader.  a's clock stands still, so
// it believes its lease is live; b's clock has run past the TTL and it
// takes over, bumping the epoch.  a's next fenced write must be
// rejected by the epoch condition and demote a on the spot — the write
// never reaches the store.
func TestFencedStaleLeaderWriteRejected(t *testing.T) {
	st := store.NewMemStore()
	defer st.Close()
	aClock, bClock := newFakeClock(), newFakeClock()
	reg := obs.New()
	a := coordOver(st, "a", "a:1", time.Second, aClock, nil)
	fenced := cluster.NewFenced(st, a, reg)
	if ok, _ := a.TryAcquire(); !ok {
		t.Fatal("a did not acquire")
	}
	if err := fenced.Put("data:x", []byte("pre")); err != nil {
		t.Fatalf("leader's fenced write: %v", err)
	}

	bClock.Advance(2 * time.Second) // past a's expiry, by b's reading
	b := coordOver(st, "b", "b:1", time.Second, bClock, nil)
	if ok, err := b.TryAcquire(); err != nil || !ok {
		t.Fatalf("b takeover = %v, %v, want true, nil", ok, err)
	}

	// a's clock never moved: it still thinks it holds a live lease.
	if !a.IsLeader() {
		t.Fatal("test premise broken: a no longer believes it leads")
	}
	err := fenced.Put("data:x", []byte("stale"))
	if !errors.Is(err, cluster.ErrFenced) {
		t.Fatalf("stale write = %v, want ErrFenced", err)
	}
	if !errors.Is(err, cluster.ErrNotLeader) {
		t.Fatal("ErrFenced must satisfy errors.Is(err, ErrNotLeader)")
	}
	if a.IsLeader() {
		t.Fatal("a still leader after being fenced")
	}
	if got := reg.Counter(obs.ClusterFencedWrites).Load(); got != 1 {
		t.Fatalf("fenced-writes counter = %d, want 1", got)
	}
	if v, _ := st.Get("data:x"); string(v) != "pre" {
		t.Fatalf("data:x = %q; the fenced write reached the store", v)
	}
	// Demoted, the next write refuses before touching the store at all.
	if err := fenced.Put("data:y", nil); !errors.Is(err, cluster.ErrNotLeader) {
		t.Fatalf("write after demotion = %v, want ErrNotLeader", err)
	}
}

// Followers refuse fenced writes outright (no store round-trip), and a
// renewed leader keeps its epoch — renewal is not an election.
func TestFencedRefusesOnFollowerAndRenewKeepsEpoch(t *testing.T) {
	st := store.NewMemStore()
	defer st.Close()
	a := coordOver(st, "a", "a:1", time.Hour, nil, nil)
	f := coordOver(st, "f", "f:1", time.Hour, nil, nil)
	fencedF := cluster.NewFenced(st, f, nil)
	if ok, _ := a.TryAcquire(); !ok {
		t.Fatal("a did not acquire")
	}
	if ok, _ := f.TryAcquire(); ok {
		t.Fatal("f acquired over a live lease")
	}
	if err := fencedF.Put("k", nil); !errors.Is(err, cluster.ErrNotLeader) {
		t.Fatalf("follower fenced write = %v, want ErrNotLeader", err)
	}
	for i := 0; i < 3; i++ {
		if err := a.Renew(); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if a.Epoch() != 1 || storedEpoch(t, st) != 1 {
		t.Fatalf("epoch after renewals = %d (stored %d), want 1", a.Epoch(), storedEpoch(t, st))
	}
}
