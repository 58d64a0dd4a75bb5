package arch

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Clusters = 2
	cfg.PEsPerCluster = 3 // kernel + 2 workers
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Clusters: 0, PEsPerCluster: 2, SharedMemoryWords: 1},
		{Clusters: 1, PEsPerCluster: 1, SharedMemoryWords: 1},
		{Clusters: 1, PEsPerCluster: 2, SharedMemoryWords: 0},
		{Clusters: 1, PEsPerCluster: 2, SharedMemoryWords: 1, NetLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	cfg := smallConfig()
	if cfg.TotalPEs() != 6 || cfg.Workers() != 4 {
		t.Errorf("TotalPEs=%d Workers=%d", cfg.TotalPEs(), cfg.Workers())
	}
}

func TestPEChargeSyncAndStats(t *testing.T) {
	p := &PE{ID: 1}
	if p.State() != PEIdle {
		t.Errorf("initial state = %v", p.State())
	}
	if got := p.charge(100); got != 100 {
		t.Errorf("Charge = %d", got)
	}
	if got := p.Sync(50); got != 100 {
		t.Errorf("Sync backwards moved clock to %d", got)
	}
	if got := p.Sync(250); got != 250 {
		t.Errorf("Sync = %d", got)
	}
	if got := p.RunAt(300, 10); got != 310 {
		t.Errorf("RunAt = %d", got)
	}
	if got := p.RunAt(100, 10); got != 320 {
		t.Errorf("RunAt with early ready = %d", got)
	}
	if p.BusyCycles() != 120 {
		t.Errorf("BusyCycles = %d, want 120", p.BusyCycles())
	}
	if p.JobsDone() != 3 {
		t.Errorf("JobsDone = %d, want 3", p.JobsDone())
	}
}

func TestPEFailureSemantics(t *testing.T) {
	p := &PE{ID: 0}
	p.fail()
	if !p.Failed() {
		t.Fatal("fail did not stick")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Charge on failed PE did not panic")
			}
		}()
		p.charge(1)
	}()
}

func TestPENegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative charge did not panic")
		}
	}()
	(&PE{}).charge(-1)
}

func TestSharedMemoryAlloc(t *testing.T) {
	m := NewSharedMemory(100)
	if err := m.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc(50); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("overcommit allowed: %v", err)
	}
	if err := m.Alloc(40); err != nil {
		t.Fatal(err)
	}
	if m.HighWater() != 100 {
		t.Errorf("HighWater=%d", m.HighWater())
	}
	if err := m.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("alloc past capacity allowed: %v", err)
	}
	if err := m.Alloc(0); err == nil {
		t.Error("zero-word alloc accepted")
	}
}

// Property: any sequence of allocs keeps the words in use equal to the sum
// of the allocations that succeeded, never above capacity.
func TestQuickSharedMemoryInvariant(t *testing.T) {
	f := func(sizes []uint16) bool {
		const capacity = 1 << 14
		m := NewSharedMemory(capacity)
		var live int64
		for _, s := range sizes {
			w := int64(s%512) + 1
			err := m.Alloc(w)
			if (err == nil) != (live+w <= capacity) {
				return false
			}
			if err == nil {
				live += w
			}
			if m.HighWater() != live {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNetworkIntraClusterBypassesLinks(t *testing.T) {
	nw := NewNetwork(2, 100, 4)
	arr := nw.Transfer(0, 0, 10, 1000)
	if arr != 1010 {
		t.Errorf("intra-cluster arrival = %d, want 1010", arr)
	}
	if nw.TotalMessages() != 0 {
		t.Error("intra-cluster transfer counted as network message")
	}
}

func TestNetworkLatencyAndBandwidth(t *testing.T) {
	nw := NewNetwork(2, 100, 4)
	arr := nw.Transfer(0, 1, 10, 0)
	if arr != 10*4+100 {
		t.Errorf("arrival = %d, want 140", arr)
	}
	if nw.Messages(0, 1) != 1 || nw.Words(0, 1) != 10 {
		t.Errorf("traffic counts wrong: %d msgs %d words", nw.Messages(0, 1), nw.Words(0, 1))
	}
}

func TestNetworkLinkSerializes(t *testing.T) {
	nw := NewNetwork(2, 100, 4)
	a1 := nw.Transfer(0, 1, 10, 0) // occupies link [0,40), arrives 140
	a2 := nw.Transfer(0, 1, 10, 0) // must wait: occupies [40,80), arrives 180
	if a1 != 140 || a2 != 180 {
		t.Errorf("serialized arrivals = %d, %d; want 140, 180", a1, a2)
	}
	// The reverse link is independent.
	a3 := nw.Transfer(1, 0, 10, 0)
	if a3 != 140 {
		t.Errorf("reverse link arrival = %d, want 140", a3)
	}
}

func TestNetworkGapInsertionOverlapsIndependentTraffic(t *testing.T) {
	nw := NewNetwork(2, 100, 4)
	// A late transfer books [1000,1040).
	late := nw.Transfer(0, 1, 10, 1000)
	if late != 1140 {
		t.Fatalf("late arrival = %d, want 1140", late)
	}
	// An early transfer from an independent computation departs at 0:
	// the gap [0,1000) is idle, so it must NOT wait behind the late one.
	early := nw.Transfer(0, 1, 10, 0)
	if early != 140 {
		t.Errorf("early arrival = %d, want 140 (ghost queueing behind later traffic)", early)
	}
	// A transfer that does not fit in the remaining gap slides past the
	// booked interval: depart 990, needs [990,1030) which overlaps
	// [1000,1040) -> starts at 1040.
	squeezed := nw.Transfer(0, 1, 10, 990)
	if squeezed != 1040+40+100 {
		t.Errorf("squeezed arrival = %d, want 1180", squeezed)
	}
	// A small transfer still fits the gap [40,1000).
	fits := nw.Transfer(0, 1, 10, 40)
	if fits != 40+40+100 {
		t.Errorf("gap-fit arrival = %d, want 180", fits)
	}
}

func TestNetworkZeroWordTransferLatencyOnly(t *testing.T) {
	nw := NewNetwork(2, 100, 4)
	if arr := nw.Transfer(0, 1, 0, 50); arr != 150 {
		t.Errorf("zero-word arrival = %d, want 150", arr)
	}
}

func TestNetworkTrafficMatrixIsCopy(t *testing.T) {
	nw := NewNetwork(2, 1, 1)
	nw.Transfer(0, 1, 5, 0)
	m := nw.TrafficMatrix()
	m[0][1] = 99
	if nw.Messages(0, 1) != 1 {
		t.Error("TrafficMatrix exposed internal state")
	}
}

func TestClusterDeliverPicksEarliestWorker(t *testing.T) {
	m := MustNew(smallConfig())
	cl := m.Cluster(0)
	// Load worker 1 so worker 2 is earliest.
	cl.Workers[0].charge(1000)
	done, w, err := cl.Deliver(0, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w != cl.Workers[1] {
		t.Errorf("picked worker %d, want the idle one", w.ID)
	}
	// Kernel decodes at max(0, arrival)=0 → 50; worker runs 50→150.
	if done != 150 {
		t.Errorf("completion = %d, want 150", done)
	}
	if cl.Delivered() != 1 {
		t.Errorf("Delivered = %d", cl.Delivered())
	}
}

func TestClusterDeliverKernelSerializesDecodes(t *testing.T) {
	m := MustNew(smallConfig())
	cl := m.Cluster(0)
	d1, _, _ := cl.Deliver(0, 50, 0)
	d2, _, _ := cl.Deliver(0, 50, 0)
	if d1 != 50 || d2 != 100 {
		t.Errorf("kernel decode completions = %d, %d; want 50, 100", d1, d2)
	}
}

func TestClusterDeliverAllWorkersFailed(t *testing.T) {
	m := MustNew(smallConfig())
	cl := m.Cluster(0)
	for _, w := range cl.Workers {
		w.fail()
	}
	if _, _, err := cl.Deliver(0, 1, 1); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("want ErrNoWorkers, got %v", err)
	}
	if cl.Rerouted() != 1 {
		t.Errorf("Rerouted = %d", cl.Rerouted())
	}
}

func TestMachineSendCrossCluster(t *testing.T) {
	cfg := smallConfig()
	m := MustNew(cfg)
	reg := obs.New()
	m.AttachInstrumentation(reg)
	done, w, err := m.Send(1 /* PE in cluster 0 */, 1, 10, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cluster != 1 {
		t.Errorf("worker cluster = %d, want 1", w.Cluster)
	}
	// arrival = 10*4+200 = 240; decode 240→290; work 290→390.
	if done != 390 {
		t.Errorf("completion = %d, want 390", done)
	}
	if got := reg.Counter(obs.ARCHMsgs).Load(); got != 1 {
		t.Errorf("ARCH msgs = %d", got)
	}
	if got := m.Network().Messages(0, 1); got != 1 {
		t.Errorf("network messages 0->1 = %d", got)
	}
}

func TestMachineSendReroutesAroundDeadCluster(t *testing.T) {
	m := MustNew(smallConfig())
	for _, w := range m.Cluster(1).Workers {
		m.FailPE(w.ID)
	}
	_, w, err := m.Send(1, 1, 10, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cluster != 0 {
		t.Errorf("rerouted to cluster %d, want 0", w.Cluster)
	}
}

func TestMachineSendFailsWhenAllWorkersDead(t *testing.T) {
	m := MustNew(smallConfig())
	for _, p := range m.PEs() {
		if !p.Kernel {
			m.FailPE(p.ID)
		}
	}
	if _, _, err := m.Send(0, 1, 1, 0, 1); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("want ErrNoWorkers, got %v", err)
	}
}

func TestMachineSendDeadKernelSkipsCluster(t *testing.T) {
	m := MustNew(smallConfig())
	m.FailPE(m.Cluster(1).Kernel.ID)
	_, w, err := m.Send(1, 1, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cluster != 0 {
		t.Errorf("message landed on cluster %d with dead kernel", w.Cluster)
	}
}

func TestMachineSendBadArgs(t *testing.T) {
	m := MustNew(smallConfig())
	if _, _, err := m.Send(-1, 0, 1, 0, 1); err == nil {
		t.Error("bad source accepted")
	}
	if _, _, err := m.Send(0, 99, 1, 0, 1); err == nil {
		t.Error("bad destination accepted")
	}
}

func TestComputeAndMemoryTouch(t *testing.T) {
	m := MustNew(smallConfig())
	reg := obs.New()
	m.AttachInstrumentation(reg)
	if done := m.Compute(1, 100); done != 100 {
		t.Errorf("Compute = %d", done)
	}
	if done := m.MemoryTouch(1, 50); done != 150 {
		t.Errorf("MemoryTouch = %d", done)
	}
	if got := reg.Counter(obs.ARCHCycles).Load(); got != 150 {
		t.Errorf("cycles = %d", got)
	}
}

func TestRemoteFetchLocalVsRemote(t *testing.T) {
	m := MustNew(smallConfig())
	// PE 1 is in cluster 0. Local fetch: memory cost only.
	local := m.RemoteFetch(1, 0, 100)
	if local != 100 {
		t.Errorf("local fetch = %d, want 100", local)
	}
	// Remote fetch from cluster 1: network latency applies and the PE
	// clock advances to the arrival.
	before := m.PE(1).Clock()
	remote := m.RemoteFetch(1, 1, 100)
	want := before + 100*m.Config().NetCyclesPerWord + m.Config().NetLatency
	if remote != want {
		t.Errorf("remote fetch = %d, want %d", remote, want)
	}
	if m.PE(1).Clock() != want {
		t.Errorf("PE clock after fetch = %d, want %d", m.PE(1).Clock(), want)
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	m := MustNew(smallConfig())
	m.PE(1).charge(100)
	m.PE(2).charge(500)
	done := m.Barrier([]int{1, 2})
	want := 500 + m.Config().NetLatency
	if done != want {
		t.Errorf("barrier done = %d, want %d", done, want)
	}
	if m.PE(1).Clock() != want || m.PE(2).Clock() != want {
		t.Error("barrier did not align clocks")
	}
}

func TestPlaceWorkerRoundRobinAcrossClusters(t *testing.T) {
	m := MustNew(smallConfig())
	w1, err := m.PlaceWorker()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := m.PlaceWorker()
	if err != nil {
		t.Fatal(err)
	}
	if w1.Cluster == w2.Cluster {
		t.Errorf("consecutive placements landed on cluster %d twice", w1.Cluster)
	}
}

func TestPlaceWorkerSkipsFailedAndErrsWhenNone(t *testing.T) {
	m := MustNew(smallConfig())
	for _, w := range m.Cluster(0).Workers {
		m.FailPE(w.ID)
	}
	w, err := m.PlaceWorker()
	if err != nil {
		t.Fatal(err)
	}
	if w.Cluster != 1 {
		t.Errorf("placement on dead cluster %d", w.Cluster)
	}
	for _, p := range m.PEs() {
		if !p.Kernel {
			m.FailPE(p.ID)
		}
	}
	if _, err := m.PlaceWorker(); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("want ErrNoWorkers, got %v", err)
	}
}

func TestPlaceWorkerInCluster(t *testing.T) {
	m := MustNew(smallConfig())
	w, err := m.PlaceWorkerInCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cluster != 1 || w.Kernel {
		t.Errorf("placement %+v", w)
	}
	if _, err := m.PlaceWorkerInCluster(9); err == nil {
		t.Error("bad cluster accepted")
	}
	for _, wk := range m.Cluster(0).Workers {
		m.FailPE(wk.ID)
	}
	if _, err := m.PlaceWorkerInCluster(0); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("dead cluster placement: %v", err)
	}
}

func TestLiveWorkersExcludesKernelAndFailed(t *testing.T) {
	m := MustNew(smallConfig())
	if got := len(m.LiveWorkers()); got != 4 {
		t.Fatalf("LiveWorkers = %d, want 4", got)
	}
	m.FailPE(m.Cluster(0).Workers[0].ID)
	if got := len(m.LiveWorkers()); got != 3 {
		t.Errorf("LiveWorkers after fault = %d, want 3", got)
	}
}

func TestFailPEBounds(t *testing.T) {
	m := MustNew(smallConfig())
	if err := m.FailPE(-1); err == nil {
		t.Error("FailPE(-1) accepted")
	}
	if err := m.FailPE(999); err == nil {
		t.Error("FailPE(999) accepted")
	}
	if err := m.FailPE(1); err != nil {
		t.Fatal(err)
	}
	if !m.PE(1).Failed() {
		t.Error("FailPE did not fail the PE")
	}
}

func TestMakespanUtilization(t *testing.T) {
	m := MustNew(smallConfig())
	if m.Utilization() != 0 {
		t.Error("idle machine utilization should be 0")
	}
	m.Compute(1, 100)
	m.Compute(2, 300)
	if m.Makespan() != 300 {
		t.Errorf("Makespan = %d", m.Makespan())
	}
	if m.TotalBusy() != 400 {
		t.Errorf("TotalBusy = %d", m.TotalBusy())
	}
	u := m.Utilization()
	want := 400.0 / (300.0 * 6.0)
	if u < want-1e-12 || u > want+1e-12 {
		t.Errorf("Utilization = %g, want %g", u, want)
	}
}

func TestConcurrentSendsAllComplete(t *testing.T) {
	m := MustNew(DefaultConfig())
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = m.Send(0, i%m.Config().Clusters, 8, 0, 100)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("send %d failed: %v", i, err)
		}
	}
	var delivered int64
	for _, c := range m.Clusters() {
		delivered += c.Delivered()
	}
	if delivered != n {
		t.Errorf("delivered = %d, want %d", delivered, n)
	}
}

func TestReportMentionsClusters(t *testing.T) {
	m := MustNew(smallConfig())
	m.Compute(1, 10)
	r := m.Report()
	for _, want := range []string{"machine:", "network:", "cluster 0", "cluster 1"} {
		if !strings.Contains(r, want) {
			t.Errorf("Report missing %q:\n%s", want, r)
		}
	}
}

func TestPEStateString(t *testing.T) {
	if PEIdle.String() != "idle" || PEBusy.String() != "busy" || PEFailed.String() != "failed" {
		t.Error("PEState strings wrong")
	}
	if !strings.Contains(PEState(9).String(), "9") {
		t.Error("unknown state string")
	}
}

// Property: makespan never decreases as more work is added, and equals the
// max PE clock.
func TestQuickMakespanMonotone(t *testing.T) {
	f := func(work []uint16) bool {
		m := MustNew(smallConfig())
		var prev int64
		for i, w := range work {
			m.Compute(1+(i%4), int64(w))
			span := m.Makespan()
			if span < prev {
				return false
			}
			prev = span
		}
		var mx int64
		for _, p := range m.PEs() {
			if c := p.Clock(); c > mx {
				mx = c
			}
		}
		return prev == mx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
