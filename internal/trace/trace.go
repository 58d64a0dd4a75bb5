// Package trace records ordered event traces across the FEM-2 virtual
// machine levels.
//
// The FEM-2 design method calls for simulations that expose the
// *communication patterns* of typical applications, not just aggregate
// counts.  A Trace captures a time-ordered sequence of events (task
// initiations, message sends, window accesses, PE assignments ...) tagged
// with the VM level that produced them, so experiments can reconstruct and
// summarise the pattern of activity.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Event is one record in a trace.
type Event struct {
	// Seq is the global sequence number, assigned on Record.
	Seq int64
	// Clock is the simulated time at which the event occurred (hardware
	// cycles for ARCH events, 0 if the producer has no clock).
	Clock int64
	// Level is the virtual machine level that produced the event.
	Level obs.Level
	// Kind classifies the event, e.g. "send", "initiate", "window.read".
	Kind string
	// Src and Dst identify the endpoints of the event where meaningful
	// (task ids, PE ids, cluster ids); -1 means not applicable.
	Src, Dst int
	// Words is the data volume associated with the event, in words.
	Words int
	// Detail is optional free-form context.
	Detail string
}

// String renders the event compactly for logs and test failures.
func (e Event) String() string {
	return fmt.Sprintf("#%d t=%d %s %s %d->%d w=%d %s",
		e.Seq, e.Clock, e.Level, e.Kind, e.Src, e.Dst, e.Words, e.Detail)
}

// Trace is an append-only, concurrency-safe event log.  A nil *Trace is a
// valid no-op sink.
type Trace struct {
	mu     sync.Mutex
	events []Event
	next   int64
	// cap limits memory use; 0 means unlimited.  When the cap is hit new
	// events are counted but not stored.
	cap     int
	dropped int64
}

// New returns an empty Trace with unlimited capacity.
func New() *Trace { return &Trace{} }

// NewCapped returns a Trace that stores at most cap events; later events
// are counted in Dropped() but not retained.
func NewCapped(cap int) *Trace { return &Trace{cap: cap} }

// Record appends an event, assigning its sequence number, and returns it.
func (t *Trace) Record(e Event) Event {
	if t == nil {
		return e
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e.Seq = t.next
	t.next++
	if t.cap > 0 && len(t.events) >= t.cap {
		t.dropped++
		return e
	}
	t.events = append(t.events, e)
	return e
}

// Recordf is a convenience wrapper building an Event in place.
func (t *Trace) Recordf(l obs.Level, kind string, src, dst, words int, format string, args ...any) {
	if t == nil {
		return
	}
	t.Record(Event{
		Level:  l,
		Kind:   kind,
		Src:    src,
		Dst:    dst,
		Words:  words,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of events discarded due to the cap.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the retained events in record order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Filter returns the retained events for which keep returns true.
func (t *Trace) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range t.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// CountByKind returns how many retained events exist per Kind.
func (t *Trace) CountByKind() map[string]int {
	out := map[string]int{}
	for _, e := range t.Events() {
		out[e.Kind]++
	}
	return out
}

// CommunicationMatrix builds the src×dst message-count matrix for events of
// the given kind, mapping endpoint ids to dense indices.  It returns the
// sorted endpoint ids and the matrix m where m[i][j] counts events from
// ids[i] to ids[j].  This is the "communication pattern" summary the FEM-2
// simulations were designed to produce.
func (t *Trace) CommunicationMatrix(kind string) (ids []int, m [][]int) {
	evs := t.Filter(func(e Event) bool { return e.Kind == kind })
	set := map[int]bool{}
	for _, e := range evs {
		set[e.Src] = true
		set[e.Dst] = true
	}
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	idx := make(map[int]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	m = make([][]int, len(ids))
	for i := range m {
		m[i] = make([]int, len(ids))
	}
	for _, e := range evs {
		m[idx[e.Src]][idx[e.Dst]]++
	}
	return ids, m
}

// Summary renders a per-kind event count table.
func (t *Trace) Summary() string {
	counts := t.CountByKind()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s\n", "event kind", "count")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-24s %10d\n", k, counts[k])
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, "(%d events dropped)\n", d)
	}
	return b.String()
}
