package arch

import (
	"fmt"
	"sync"
)

// PEState is the life-cycle state of a processing element.
type PEState int

// PE states.  Failed PEs are isolated by reconfiguration and receive no
// further work, per the paper's requirement to "provide reconfigurability
// to isolate faulty hardware components".
const (
	PEIdle PEState = iota
	PEBusy
	PEFailed
)

// String names the state.
func (s PEState) String() string {
	switch s {
	case PEIdle:
		return "idle"
	case PEBusy:
		return "busy"
	case PEFailed:
		return "failed"
	default:
		return fmt.Sprintf("PEState(%d)", int(s))
	}
}

// PE is one processing element.  Each PE carries a local cycle clock; the
// machine's makespan is the maximum clock over all PEs.
type PE struct {
	// ID is the machine-wide PE index.
	ID int
	// Cluster is the index of the owning cluster.
	Cluster int
	// Kernel marks the PE that runs the operating system kernel for its
	// cluster.
	Kernel bool

	mu       sync.Mutex
	state    PEState
	clock    int64
	busy     int64 // total cycles spent computing (for utilization)
	jobsDone int64
}

// State returns the PE's current state.
func (p *PE) State() PEState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Failed reports whether the PE has been isolated.
func (p *PE) Failed() bool { return p.State() == PEFailed }

// Clock returns the PE's local cycle time.
func (p *PE) Clock() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clock
}

// BusyCycles returns the total cycles the PE spent on work.
func (p *PE) BusyCycles() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.busy
}

// JobsDone returns how many work items the PE has completed.
func (p *PE) JobsDone() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.jobsDone
}

// charge advances the PE's clock by cycles of compute and returns the new
// clock value.  Charging a failed PE panics: the scheduler must never
// route work to an isolated component.  Machine.Compute is the one
// caller, so every cycle charged is counted in arch.cycles.
func (p *PE) charge(cycles int64) int64 {
	if cycles < 0 {
		panic(fmt.Sprintf("arch: negative charge %d on PE %d", cycles, p.ID))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == PEFailed {
		panic(fmt.Sprintf("arch: charge on failed PE %d", p.ID))
	}
	p.clock += cycles
	p.busy += cycles
	p.jobsDone++
	return p.clock
}

// Sync advances the PE's clock to at least t (a data or message
// dependency: the PE waited).  It returns the new clock.
func (p *PE) Sync(t int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t > p.clock {
		p.clock = t
	}
	return p.clock
}

// RunAt models receiving a work item that becomes available at time ready
// and costs cycles: the clock advances to max(clock, ready)+cycles.  It
// returns the completion time.
func (p *PE) RunAt(ready, cycles int64) int64 {
	if cycles < 0 {
		panic(fmt.Sprintf("arch: negative work %d on PE %d", cycles, p.ID))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == PEFailed {
		panic(fmt.Sprintf("arch: work routed to failed PE %d", p.ID))
	}
	if ready > p.clock {
		p.clock = ready
	}
	p.clock += cycles
	p.busy += cycles
	p.jobsDone++
	return p.clock
}

// fail marks the PE failed (called via Machine.FailPE so scheduling state
// stays consistent).
func (p *PE) fail() {
	p.mu.Lock()
	p.state = PEFailed
	p.mu.Unlock()
}
