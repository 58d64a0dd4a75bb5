package arch

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNoWorkers is returned when a cluster has no live worker PE and the
// machine has nowhere to reroute.
var ErrNoWorkers = errors.New("arch: no live worker PEs")

// Cluster is a set of PEs organized around a shared memory.  PE index 0
// within the cluster is the kernel PE, which fields incoming messages and
// assigns available PEs to process them.
type Cluster struct {
	// ID is the cluster index.
	ID int
	// Kernel runs the operating system kernel for the cluster.
	Kernel *PE
	// Workers are the remaining PEs; any available one can process any
	// message from the input queue.
	Workers []*PE
	// Memory is the cluster's shared memory.
	Memory *SharedMemory

	mu        sync.Mutex
	delivered int64 // messages fielded by the kernel
	rerouted  int64 // messages this cluster had to bounce elsewhere
}

// Delivered returns how many messages the cluster's kernel has fielded.
func (c *Cluster) Delivered() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered
}

// liveWorkers returns the cluster's non-failed workers.
func (c *Cluster) liveWorkers() []*PE {
	var out []*PE
	for _, w := range c.Workers {
		if !w.Failed() {
			out = append(out, w)
		}
	}
	return out
}

// LiveWorkerCount returns the number of non-failed worker PEs.
func (c *Cluster) LiveWorkerCount() int { return len(c.liveWorkers()) }

// earliestWorker picks the live worker with the smallest clock, modelling
// "assigns available PE's to process them".  Ties break on PE ID so the
// choice is deterministic.
func (c *Cluster) earliestWorker() *PE {
	var best *PE
	var bestClock int64
	for _, w := range c.Workers {
		if w.Failed() {
			continue
		}
		clk := w.Clock()
		if best == nil || clk < bestClock || (clk == bestClock && w.ID < best.ID) {
			best, bestClock = w, clk
		}
	}
	return best
}

// Deliver models a message arriving in the cluster's input queue at time
// arrival: the kernel PE decodes it (decodeCycles) and assigns the work
// (workCycles) to the earliest available live worker.  It returns the
// completion time and the chosen worker.
func (c *Cluster) Deliver(arrival, decodeCycles, workCycles int64) (int64, *PE, error) {
	if c.Kernel.Failed() {
		return 0, nil, fmt.Errorf("arch: cluster %d kernel PE failed", c.ID)
	}
	// Serialize kernel dispatch decisions so worker choice is
	// consistent under concurrent delivery.
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.earliestWorker()
	if w == nil {
		c.rerouted++
		return 0, nil, fmt.Errorf("%w in cluster %d", ErrNoWorkers, c.ID)
	}
	decoded := c.Kernel.RunAt(arrival, decodeCycles)
	done := w.RunAt(decoded, workCycles)
	c.delivered++
	return done, w, nil
}
