// Package obs is the live-metrics substrate of the FEM-2 service: a
// registry of named atomic counters, gauges, and fixed-bucket latency
// histograms, a point-in-time Snapshot with deterministic ordering, and
// an interval emitter (emit.go) that writes one JSON line per tick in
// the perf-stat -I / pmu2metrics style.
//
// The paper's machine was evaluated by measuring what the hardware
// actually did; this package is the running service's equivalent.  The
// design constraints, in order:
//
//   - Zero-alloc on the hot path.  Counter.Add, Gauge.Set, and
//     Histogram.Observe are single atomic operations on preallocated
//     storage — safe inside the scheduler's submit path and the
//     store's write path without adding lock pressure.
//   - Nil-safe everywhere.  A nil *Counter, *Gauge, *Histogram, or
//     *Registry is a valid no-op sink, so instrumented packages never
//     branch on "is observability on" — they just observe.
//   - Mergeable.  Histogram buckets are powers of two, so snapshots
//     from many sources (or many ticks) merge bucket-by-bucket without
//     rebinning.
//
// Metric names are flat dotted strings; the canonical catalog lives in
// names.go and docs/observability.md.  The simulated machine counts into
// the same registry, per virtual machine level (level.go).
package obs

import (
	"maps"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.  The zero value is
// ready to use; a nil pointer is a valid no-op sink.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is the caller's bug; the registry never
// checks, keeping the hot path one instruction).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level — queue depth, open connections,
// degraded yes/no.  The zero value is ready; nil is a no-op sink.
type Gauge struct{ v atomic.Int64 }

// Set stores the level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the level by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the fixed histogram size: bucket i counts observations
// v (in nanoseconds) with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 holds v == 0).  39 doublings reach ~9 minutes, past any
// latency this service can produce without a context deadline firing
// first; larger values clamp into the last bucket.
const NumBuckets = 40

// bucketOf maps one observation onto its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// Histogram is a fixed power-of-two-bucket latency histogram.  Observe
// is three atomic adds on preallocated storage: no locks, no
// allocation, safe under any concurrency.  The zero value is ready;
// nil is a no-op sink.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snap copies the histogram's current state.  Concurrent Observes may
// land between the atomic reads — a snapshot is a consistent-enough
// point-in-time view, not a linearization point.
func (h *Histogram) snap(name string) HistogramSnap {
	s := HistogramSnap{Name: name, Count: h.count.Load(), SumNS: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketSnap{Pow: i, Count: n})
		}
	}
	return s
}

// MetricSnap is one named counter or gauge value in a Snapshot.
type MetricSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketSnap is one non-empty histogram bucket: Count observations
// with 2^(Pow-1) <= value < 2^Pow nanoseconds (Pow 0 is exactly zero).
type BucketSnap struct {
	Pow   int   `json:"pow"`
	Count int64 `json:"count"`
}

// HistogramSnap is one histogram's state at snapshot time.
type HistogramSnap struct {
	Name    string       `json:"name,omitempty"`
	Count   int64        `json:"count"`
	SumNS   int64        `json:"sum_ns"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry: every registered
// metric, sorted by name, so two snapshots of identical state are
// deeply equal and every rendering derived from one is deterministic.
type Snapshot struct {
	// UptimeSeconds is whole seconds since the registry was created —
	// the process start for a system registry.
	UptimeSeconds int64 `json:"uptime_s"`
	// Counters, Gauges, and Histograms are the registered metrics,
	// ascending by name.  Empty sections are nil, so a quiet registry's
	// snapshot is the zero value plus uptime.
	Counters   []MetricSnap    `json:"counters,omitempty"`
	Gauges     []MetricSnap    `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// Counter returns the named counter's value, zero when absent.
func (s Snapshot) Counter(name string) int64 { return findMetric(s.Counters, name) }

func findMetric(ms []MetricSnap, name string) int64 {
	i := sort.Search(len(ms), func(i int) bool { return ms[i].Name >= name })
	if i < len(ms) && ms[i].Name == name {
		return ms[i].Value
	}
	return 0
}

// Registry is a get-or-create namespace of metrics.  Counter, Gauge,
// and Histogram hand out stable pointers — instrumented code resolves
// each metric once and then observes lock-free.  A nil *Registry hands
// out nil metrics, which are valid no-op sinks, so observability-free
// construction paths (unit tests building a bare scheduler) cost
// nothing and branch nowhere.
type Registry struct {
	start time.Time

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry whose uptime starts now.
func New() *Registry {
	return &Registry{
		start:      time.Now(),
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// HistogramFamily is one dynamic histogram family — the histograms named
// prefix+member, such as server.request.<verb> — with each member's
// handle resolved on its first observation and found again without the
// registry mutex or the name concatenation: a hit is one atomic load and
// one lookup in a map nobody writes, so a per-verb Observe costs what a
// fixed metric's does.  Members register lazily, as Registry.Histogram
// registers them, so a snapshot shows only the verbs that occurred.  A
// nil family hands out nil histograms.
type HistogramFamily struct {
	reg    *Registry
	prefix string
	// members is replaced, never written: a miss stores a copy with the
	// new member in it (under the registry's mutex, against another miss),
	// and a family is as small as the verb table.
	members atomic.Pointer[map[string]*Histogram]
}

// HistogramFamily returns a handle cache for the family named by prefix
// (one of the *Prefix constants in names.go).
func (r *Registry) HistogramFamily(prefix string) *HistogramFamily {
	if r == nil {
		return nil
	}
	f := &HistogramFamily{reg: r, prefix: prefix}
	f.members.Store(&map[string]*Histogram{})
	return f
}

// Get returns the histogram prefix+member.
func (f *HistogramFamily) Get(member string) *Histogram {
	if f == nil {
		return nil
	}
	if h, ok := (*f.members.Load())[member]; ok {
		return h
	}
	h := f.reg.Histogram(f.prefix + member)
	f.reg.mu.Lock()
	defer f.reg.mu.Unlock()
	grown := maps.Clone(*f.members.Load())
	grown[member] = h
	f.members.Store(&grown)
	return h
}

// UptimeSeconds returns whole seconds since the registry was created.
func (r *Registry) UptimeSeconds() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.start) / time.Second)
}

// Snapshot copies every registered metric, sorted by name.  Safe for
// concurrent use with any number of observers; a nil registry snapshots
// to the zero value.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	cnames := sortedKeys(r.counters)
	gnames := sortedKeys(r.gauges)
	hnames := sortedKeys(r.histograms)
	cs := make([]*Counter, len(cnames))
	for i, n := range cnames {
		cs[i] = r.counters[n]
	}
	gs := make([]*Gauge, len(gnames))
	for i, n := range gnames {
		gs[i] = r.gauges[n]
	}
	hs := make([]*Histogram, len(hnames))
	for i, n := range hnames {
		hs[i] = r.histograms[n]
	}
	r.mu.Unlock()

	snap := Snapshot{UptimeSeconds: r.UptimeSeconds()}
	for i, n := range cnames {
		snap.Counters = append(snap.Counters, MetricSnap{Name: n, Value: cs[i].Load()})
	}
	for i, n := range gnames {
		snap.Gauges = append(snap.Gauges, MetricSnap{Name: n, Value: gs[i].Load()})
	}
	for i, n := range hnames {
		snap.Histograms = append(snap.Histograms, hs[i].snap(n))
	}
	return snap
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
