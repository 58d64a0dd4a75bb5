// Package metrics provides the processing / storage / communication
// counters that the FEM-2 design method uses to evaluate each virtual
// machine level.
//
// The paper's evaluation plan is built around "simulations to measure the
// storage, processing, and communication patterns in typical FEM-2
// applications".  Every layer of the reproduction (ARCH, SPVM, NAVM, AUVM)
// threads a *Collector through its operations, so an experiment can ask,
// after a run, how many floating point operations were executed, how many
// words were allocated, and how many messages and words crossed cluster
// boundaries — broken down by virtual machine level.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Level identifies one of the four FEM-2 virtual machine layers.
type Level int

// The four layers of virtual machine described in the paper, top to bottom.
const (
	// LevelAUVM is the application user's virtual machine (interactive
	// command language, model database, workspaces).
	LevelAUVM Level = iota
	// LevelNAVM is the numerical analyst's virtual machine (tasks,
	// windows, forall/pardo, broadcast, linear algebra operations).
	LevelNAVM
	// LevelSPVM is the system programmer's virtual machine (messages,
	// activation records, ready queues, heap storage).
	LevelSPVM
	// LevelARCH is the hardware layer (clusters of PEs, shared memory,
	// communication network).
	LevelARCH
	numLevels
)

// String returns the conventional short name of the level.
func (l Level) String() string {
	switch l {
	case LevelAUVM:
		return "AUVM"
	case LevelNAVM:
		return "NAVM"
	case LevelSPVM:
		return "SPVM"
	case LevelARCH:
		return "ARCH"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Levels returns all levels in top-down order.
func Levels() []Level {
	return []Level{LevelAUVM, LevelNAVM, LevelSPVM, LevelARCH}
}

// Counter names used throughout the system.  A counter is identified by a
// (Level, name) pair; names are free-form but these are the ones the
// experiment harness reports on.
const (
	// CtrFlops counts floating point operations (processing requirement).
	CtrFlops = "flops"
	// CtrOps counts abstract VM operations (command executions, task
	// control operations, message decodes ...).
	CtrOps = "ops"
	// CtrWordsAlloc counts words of storage allocated (storage
	// requirement).
	CtrWordsAlloc = "words_alloc"
	// CtrWordsFreed counts words of storage returned.
	CtrWordsFreed = "words_freed"
	// CtrMsgs counts messages sent (communication requirement).
	CtrMsgs = "msgs"
	// CtrMsgWords counts words of message payload moved.
	CtrMsgWords = "msg_words"
	// CtrRemoteAccesses counts accesses to non-local data through
	// windows.
	CtrRemoteAccesses = "remote_accesses"
	// CtrLocalAccesses counts accesses satisfied from task-local data.
	CtrLocalAccesses = "local_accesses"
	// CtrTasksInitiated counts dynamic task initiations.
	CtrTasksInitiated = "tasks_initiated"
	// CtrCycles counts simulated hardware cycles.
	CtrCycles = "cycles"
)

// Collector accumulates named counters per virtual machine level.  It is
// safe for concurrent use; tasks running on many goroutines record into a
// shared Collector.
type Collector struct {
	mu     sync.Mutex
	levels [numLevels]map[string]int64
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	c := &Collector{}
	for i := range c.levels {
		c.levels[i] = make(map[string]int64)
	}
	return c
}

// Add adds delta to the named counter at the given level.  A nil Collector
// is a valid no-op sink, so deeply nested code never needs to check.
func (c *Collector) Add(l Level, name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.levels[l][name] += delta
	c.mu.Unlock()
}

// AddFlops is shorthand for Add(l, CtrFlops, n).
func (c *Collector) AddFlops(l Level, n int64) { c.Add(l, CtrFlops, n) }

// Get returns the current value of the named counter at the given level.
func (c *Collector) Get(l Level, name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.levels[l][name]
}

// Total returns the sum of the named counter across all levels.
func (c *Collector) Total(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for i := range c.levels {
		t += c.levels[i][name]
	}
	return t
}

// Reset zeroes every counter.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.levels {
		c.levels[i] = make(map[string]int64)
	}
}

// Snapshot returns a copy of all counters, keyed by level then name.
func (c *Collector) Snapshot() map[Level]map[string]int64 {
	out := make(map[Level]map[string]int64, numLevels)
	if c == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.levels {
		m := make(map[string]int64, len(c.levels[i]))
		for k, v := range c.levels[i] {
			m[k] = v
		}
		out[Level(i)] = m
	}
	return out
}

// Diff returns a new snapshot holding the per-counter difference between
// the collector's current state and the earlier snapshot prev.
func (c *Collector) Diff(prev map[Level]map[string]int64) map[Level]map[string]int64 {
	cur := c.Snapshot()
	for l, m := range cur {
		for k := range m {
			m[k] -= prev[l][k]
		}
	}
	return cur
}

// Report renders a fixed-width table of all non-zero counters, levels as
// rows in top-down order, counter names as columns in sorted order.  This
// is the per-level requirements table the FEM-2 simulations were meant to
// produce.
func (c *Collector) Report() string {
	snap := c.Snapshot()
	names := map[string]bool{}
	for _, m := range snap {
		for k, v := range m {
			if v != 0 {
				names[k] = true
			}
		}
	}
	cols := make([]string, 0, len(names))
	for k := range names {
		cols = append(cols, k)
	}
	sort.Strings(cols)

	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "level")
	for _, k := range cols {
		fmt.Fprintf(&b, " %14s", k)
	}
	b.WriteByte('\n')
	for _, l := range Levels() {
		fmt.Fprintf(&b, "%-6s", l)
		for _, k := range cols {
			fmt.Fprintf(&b, " %14d", snap[l][k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
