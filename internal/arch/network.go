package arch

import (
	"sort"
	"sync"
)

// Network models the common communication network joining clusters.  Each
// ordered cluster pair has a link that serializes transfers: a message
// occupies the link for words*CyclesPerWord cycles, and arrives Latency
// cycles after it clears the link.  Each link keeps its schedule as a
// list of busy intervals, so a transfer departing at time t claims the
// earliest idle gap at or after t — concurrent computations (independent
// solves, multiple users) interleave their messages through the idle gaps
// exactly as they would on the shared hardware.  Intra-cluster transfers
// move through shared memory instead and never touch the network.
type Network struct {
	latency       int64
	cyclesPerWord int64

	mu sync.Mutex
	// busy[s][d] is the s->d link's schedule: disjoint busy intervals
	// sorted by start time.
	busy [][][]interval
	// msgs/words count traffic per ordered pair for the communication
	// pattern reports.
	msgs  [][]int64
	words [][]int64
}

type interval struct{ start, end int64 }

// NewNetwork builds a network over n clusters with the given costs.
func NewNetwork(n int, latency, cyclesPerWord int64) *Network {
	nw := &Network{latency: latency, cyclesPerWord: cyclesPerWord}
	nw.busy = make([][][]interval, n)
	nw.msgs = make([][]int64, n)
	nw.words = make([][]int64, n)
	for i := 0; i < n; i++ {
		nw.busy[i] = make([][]interval, n)
		nw.msgs[i] = make([]int64, n)
		nw.words[i] = make([]int64, n)
	}
	return nw
}

// Transfer sends words from cluster src to cluster dst with the given
// departure time and returns the arrival time at dst's input queue.  The
// transfer claims the link's earliest idle gap of sufficient length at or
// after the departure time.
func (nw *Network) Transfer(src, dst int, words int64, depart int64) int64 {
	if src == dst {
		// Same cluster: staging through shared memory, no network.
		return depart + words*1 // one cycle per word through memory port
	}
	occupy := words * nw.cyclesPerWord
	nw.mu.Lock()
	defer nw.mu.Unlock()
	sched := nw.busy[src][dst]
	start := depart
	idx := len(sched)
	if occupy > 0 {
		// Find the insertion point — the first interval ending after
		// the candidate start (binary search; intervals are disjoint
		// and sorted) — then walk forward until a gap fits.
		idx = sort.Search(len(sched), func(i int) bool { return sched[i].end > start })
		for idx < len(sched) {
			gapEnd := sched[idx].start
			if start+occupy <= gapEnd {
				break // fits before interval idx
			}
			if sched[idx].end > start {
				start = sched[idx].end
			}
			idx++
		}
		sched = append(sched, interval{})
		copy(sched[idx+1:], sched[idx:])
		sched[idx] = interval{start: start, end: start + occupy}
		nw.busy[src][dst] = sched
	}
	nw.msgs[src][dst]++
	nw.words[src][dst] += words
	return start + occupy + nw.latency
}

// TotalMessages returns the machine-wide inter-cluster message count.
func (nw *Network) TotalMessages() int64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	var t int64
	for i := range nw.msgs {
		for j := range nw.msgs[i] {
			t += nw.msgs[i][j]
		}
	}
	return t
}

// TotalWords returns the machine-wide inter-cluster word count.
func (nw *Network) TotalWords() int64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	var t int64
	for i := range nw.words {
		for j := range nw.words[i] {
			t += nw.words[i][j]
		}
	}
	return t
}

// TrafficMatrix returns a copy of the per-pair message counts — the
// communication pattern the FEM-2 simulations were designed to expose.
func (nw *Network) TrafficMatrix() [][]int64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	out := make([][]int64, len(nw.msgs))
	for i := range nw.msgs {
		out[i] = make([]int64, len(nw.msgs[i]))
		copy(out[i], nw.msgs[i])
	}
	return out
}
