package arch

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Machine is a configured FEM-2 hardware instance: clusters joined by the
// common communication network, with machine-wide fault handling and
// statistics.
type Machine struct {
	cfg      Config
	clusters []*Cluster
	pes      []*PE // flat index: cluster*PEsPerCluster + local
	network  *Network

	// msgs, msgWords and cycles are the arch.* counters, resolved by
	// AttachInstrumentation; nil until then (no-op sinks).
	msgs, msgWords, cycles *obs.Counter

	mu     sync.Mutex
	nextRR int // round-robin cursor for cross-cluster placement
}

// New builds a machine from the configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, network: NewNetwork(cfg.Clusters, cfg.NetLatency, cfg.NetCyclesPerWord)}
	for ci := 0; ci < cfg.Clusters; ci++ {
		cl := &Cluster{ID: ci, Memory: NewSharedMemory(cfg.SharedMemoryWords)}
		for pi := 0; pi < cfg.PEsPerCluster; pi++ {
			pe := &PE{ID: ci*cfg.PEsPerCluster + pi, Cluster: ci, Kernel: pi == 0}
			m.pes = append(m.pes, pe)
			if pi == 0 {
				cl.Kernel = pe
			} else {
				cl.Workers = append(cl.Workers, pe)
			}
		}
		m.clusters = append(m.clusters, cl)
	}
	return m, nil
}

// AttachInstrumentation points the machine's counters at reg, which may
// be nil.
func (m *Machine) AttachInstrumentation(reg *obs.Registry) {
	m.msgs, m.msgWords, m.cycles = reg.Counter(obs.ARCHMsgs), reg.Counter(obs.ARCHMsgWords), reg.Counter(obs.ARCHCycles)
}

// MustNew builds a machine and panics on configuration errors (test and
// example convenience).
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Clusters returns the machine's clusters.
func (m *Machine) Clusters() []*Cluster { return m.clusters }

// Cluster returns cluster i.
func (m *Machine) Cluster(i int) *Cluster { return m.clusters[i] }

// PE returns the PE with the given machine-wide ID.
func (m *Machine) PE(id int) *PE { return m.pes[id] }

// Network returns the communication network.
func (m *Machine) Network() *Network { return m.network }

// Send models one message of words payload words sent from srcPE's cluster
// to cluster dst, departing at time depart: network transfer, kernel
// decode, and workCycles of processing on an available worker.  If dst has
// no live workers the machine reconfigures around the fault by routing to
// the next live cluster.  It returns the completion time and the worker
// that processed the message.
func (m *Machine) Send(srcPE int, dst int, words, depart, workCycles int64) (int64, *PE, error) {
	if srcPE < 0 || srcPE >= len(m.pes) {
		return 0, nil, fmt.Errorf("arch: bad source PE %d", srcPE)
	}
	if dst < 0 || dst >= len(m.clusters) {
		return 0, nil, fmt.Errorf("arch: bad destination cluster %d", dst)
	}
	src := m.pes[srcPE].Cluster
	tried := 0
	for tried < len(m.clusters) {
		target := (dst + tried) % len(m.clusters)
		cl := m.clusters[target]
		if cl.Kernel.Failed() || cl.LiveWorkerCount() == 0 {
			tried++
			continue
		}
		arrival := m.network.Transfer(src, target, words, depart)
		done, w, err := cl.Deliver(arrival, m.cfg.KernelDecodeCycles, workCycles)
		if err != nil {
			tried++
			continue
		}
		m.msgs.Inc()
		m.msgWords.Add(words)
		m.cycles.Add(workCycles)
		return done, w, nil
	}
	return 0, nil, fmt.Errorf("%w anywhere in the machine", ErrNoWorkers)
}

// Compute charges cycles of local computation to the given PE at its
// current clock and returns the completion time.
func (m *Machine) Compute(peID int, cycles int64) int64 {
	done := m.pes[peID].charge(cycles)
	m.cycles.Add(cycles)
	return done
}

// MemoryTouch charges the cost of moving words through the PE's cluster
// shared memory and returns the completion time.
func (m *Machine) MemoryTouch(peID int, words int64) int64 {
	return m.Compute(peID, words*m.cfg.MemCyclesPerWord)
}

// RemoteFetch models peID pulling words from cluster srcCluster's shared
// memory through the network (the hardware realisation of a remote window
// access): the request departs at the PE's clock, the payload crosses the
// network, and the PE resumes at arrival.  It returns the arrival time.
func (m *Machine) RemoteFetch(peID int, srcCluster int, words int64) int64 {
	pe := m.pes[peID]
	if pe.Cluster == srcCluster {
		return m.MemoryTouch(peID, words)
	}
	depart := pe.Clock()
	arrival := m.network.Transfer(srcCluster, pe.Cluster, words, depart)
	pe.Sync(arrival)
	m.msgs.Inc()
	m.msgWords.Add(words)
	return arrival
}

// Barrier synchronizes the listed PEs: all clocks advance to the maximum
// plus the cost of one network latency (the synchronisation exchange).
// It returns the barrier completion time.
func (m *Machine) Barrier(peIDs []int) int64 {
	var maxClock int64
	for _, id := range peIDs {
		if c := m.pes[id].Clock(); c > maxClock {
			maxClock = c
		}
	}
	done := maxClock + m.cfg.NetLatency
	for _, id := range peIDs {
		m.pes[id].Sync(done)
	}
	return done
}

// PlaceWorker picks a live worker PE for new work, spreading placements
// round-robin over clusters (the kernel-level placement policy).  It
// returns an error only when every worker in the machine has failed.
func (m *Machine) PlaceWorker() (*PE, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < len(m.clusters); i++ {
		cl := m.clusters[(m.nextRR+i)%len(m.clusters)]
		if w := cl.earliestWorker(); w != nil {
			m.nextRR = (cl.ID + 1) % len(m.clusters)
			return w, nil
		}
	}
	return nil, ErrNoWorkers
}

// PlaceWorkerInCluster picks the earliest live worker within one cluster,
// for work that must run beside a given cluster's data or away from it.
func (m *Machine) PlaceWorkerInCluster(cluster int) (*PE, error) {
	if cluster < 0 || cluster >= len(m.clusters) {
		return nil, fmt.Errorf("arch: no cluster %d", cluster)
	}
	if w := m.clusters[cluster].earliestWorker(); w != nil {
		return w, nil
	}
	return nil, fmt.Errorf("%w in cluster %d", ErrNoWorkers, cluster)
}

// LiveWorkers returns every non-failed worker PE in ID order.
func (m *Machine) LiveWorkers() []*PE {
	var out []*PE
	for _, p := range m.pes {
		if !p.Kernel && !p.Failed() {
			out = append(out, p)
		}
	}
	return out
}

// FailPE isolates the PE with the given ID, modelling a hardware fault.
// Failing a kernel PE takes its whole cluster out of service for message
// delivery (the machine reroutes around it).
func (m *Machine) FailPE(id int) error {
	if id < 0 || id >= len(m.pes) {
		return fmt.Errorf("arch: FailPE: no PE %d", id)
	}
	m.pes[id].fail()
	return nil
}

// Makespan returns the maximum PE clock — the simulated completion time of
// everything run so far.
func (m *Machine) Makespan() int64 {
	var mx int64
	for _, p := range m.pes {
		if c := p.Clock(); c > mx {
			mx = c
		}
	}
	return mx
}

// TotalBusy returns the sum of busy cycles over all PEs.
func (m *Machine) TotalBusy() int64 {
	var t int64
	for _, p := range m.pes {
		t += p.BusyCycles()
	}
	return t
}

// Utilization returns TotalBusy / (Makespan × live PEs), the standard
// parallel efficiency measure; it returns 0 for an idle machine.
func (m *Machine) Utilization() float64 {
	span := m.Makespan()
	if span == 0 {
		return 0
	}
	var live int64
	for _, p := range m.pes {
		if !p.Failed() {
			live++
		}
	}
	if live == 0 {
		return 0
	}
	return float64(m.TotalBusy()) / float64(span*live)
}

// Report summarises the machine state for the experiment harness.
func (m *Machine) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: %d clusters × %d PEs, makespan %d cycles, utilization %.2f\n",
		m.cfg.Clusters, m.cfg.PEsPerCluster, m.Makespan(), m.Utilization())
	fmt.Fprintf(&b, "network: %d messages, %d words\n", m.network.TotalMessages(), m.network.TotalWords())
	for _, c := range m.clusters {
		fmt.Fprintf(&b, "  cluster %d: %d live workers, %d delivered, mem high-water %d\n",
			c.ID, c.LiveWorkerCount(), c.Delivered(), c.Memory.HighWater())
	}
	return b.String()
}
