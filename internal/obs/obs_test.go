package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the power-of-two binning: bucket
// i holds 2^(i-1) <= v < 2^i, bucket 0 holds zero, and values past the
// last boundary clamp into the final bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v   time.Duration
		pow int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{1025, 11},
		{time.Microsecond, 10},             // 1000 ns
		{time.Millisecond, 20},             // 1e6 ns
		{time.Second, 30},                  // 1e9 ns
		{30 * time.Minute, NumBuckets - 1}, // past the range: clamps
	}
	for _, tc := range cases {
		h := &Histogram{}
		h.Observe(tc.v)
		s := h.snap("x")
		if len(s.Buckets) != 1 || s.Buckets[0].Pow != tc.pow || s.Buckets[0].Count != 1 {
			t.Errorf("Observe(%d ns) → buckets %v, want one count in pow %d", int64(tc.v), s.Buckets, tc.pow)
		}
		if s.Count != 1 || s.SumNS != int64(tc.v) {
			t.Errorf("Observe(%d ns) → count %d sum %d", int64(tc.v), s.Count, s.SumNS)
		}
	}
}

// TestSnapshotDeterministic takes two snapshots of one registry with
// no traffic in between and requires them deeply equal — the property
// that makes the stats verb's rendering stable.
func TestSnapshotDeterministic(t *testing.T) {
	r := New()
	r.Counter("b.count").Add(7)
	r.Counter("a.count").Inc()
	r.Gauge("z.level").Set(3)
	r.Histogram("m.lat").Observe(250 * time.Microsecond)
	r.Histogram("m.lat").Observe(3 * time.Millisecond)

	s1 := r.Snapshot()
	s2 := r.Snapshot()
	// Uptime advances with the wall clock even with no traffic; equality
	// is over the metrics.
	s1.UptimeSeconds, s2.UptimeSeconds = 0, 0
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("quiet snapshots differ:\n%+v\n%+v", s1, s2)
	}
	// Sorted by name regardless of registration order.
	if s1.Counters[0].Name != "a.count" || s1.Counters[1].Name != "b.count" {
		t.Errorf("counters not sorted: %+v", s1.Counters)
	}
	if got := s1.Counter("b.count"); got != 7 {
		t.Errorf("Counter(b.count) = %d, want 7", got)
	}
	if got := s1.Gauge("z.level"); got != 3 {
		t.Errorf("Gauge(z.level) = %d, want 3", got)
	}
	if h, ok := s1.Histogram("m.lat"); !ok || h.Count != 2 {
		t.Errorf("Histogram(m.lat) = %+v ok=%v", h, ok)
	}
	if got := s1.Counter("never.registered"); got != 0 {
		t.Errorf("absent counter = %d, want 0", got)
	}
}

// TestNilSafety: every type is a valid no-op sink at nil, so
// instrumented packages never branch on observability being wired.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(5)
	r.Gauge("x").Set(2)
	r.Gauge("x").Add(-1)
	r.Histogram("x").Observe(time.Second)
	if r.Counter("x").Load() != 0 || r.Gauge("x").Load() != 0 || r.Histogram("x").Count() != 0 {
		t.Error("nil metrics reported non-zero")
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, Snapshot{}) {
		t.Errorf("nil registry snapshot = %+v", got)
	}
	if r.UptimeSeconds() != 0 {
		t.Error("nil registry uptime non-zero")
	}
}

// TestConcurrentObserve hammers one registry from many goroutines and
// checks totals — run under -race this is the thread-safety proof.
func TestConcurrentObserve(t *testing.T) {
	r := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(time.Duration(i))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Load(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Load(); got != workers*per {
		t.Errorf("gauge = %d, want %d", got, workers*per)
	}
	h, _ := r.Snapshot().Histogram("h")
	if h.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*per)
	}
}

// TestEmitterFakeClock drives the emitter from a hand-fed tick channel
// and a fixed clock: one line per tick, each line valid JSON with the
// expected fields, and a stop that writes one closing line with the jobs
// finished after the last tick.
func TestEmitterFakeClock(t *testing.T) {
	r := New()
	r.Counter(JobDone).Add(10)
	r.Counter(FactorHits).Add(3)
	r.Counter(FactorMisses).Add(1)
	r.Gauge(JobQueueDepth).Set(2)
	r.Histogram(JobLatencyPrefix + "solve").Observe(2 * time.Millisecond)

	var buf bytes.Buffer
	ticks := make(chan time.Time)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	e := NewEmitter(r, EmitterOpts{
		W:     &buf,
		Now:   func() time.Time { return base },
		Ticks: ticks,
	})
	e.Start()

	const n = 5
	for i := 1; i <= n; i++ {
		r.Counter(JobDone).Add(20)
		ticks <- base.Add(time.Duration(i) * time.Second)
		// The unbuffered channel means the emitter took the tick; wait
		// for the line so Lines() is settled.
		waitLines(t, e, int64(i))
	}
	r.Counter(JobDone).Add(7) // after the last tick
	e.Stop()

	if got := e.Lines(); got != n+1 {
		t.Fatalf("Lines() = %d, want %d", got, n+1)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var line struct {
			TS         string           `json:"ts"`
			JobsPerSec float64          `json:"jobs_per_sec"`
			FactorHit  float64          `json:"factor_hit_rate"`
			Counters   map[string]int64 `json:"counters"`
			Gauges     map[string]int64 `json:"gauges"`
			Hist       map[string]struct {
				Count int64 `json:"count"`
			} `json:"hist"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if line.TS == "" {
			t.Fatalf("line %d missing ts", lines)
		}
		if lines == n+1 {
			if got, want := line.Counters[JobDone], r.Counter(JobDone).Load(); got != want {
				t.Errorf("closing line job.done = %d, want the registry's %d", got, want)
			}
			continue
		}
		// 20 completions per 1s tick.
		if line.JobsPerSec != 20 {
			t.Errorf("line %d jobs_per_sec = %v, want 20", lines, line.JobsPerSec)
		}
		if line.FactorHit != 0.75 {
			t.Errorf("line %d factor_hit_rate = %v, want 0.75", lines, line.FactorHit)
		}
		if line.Gauges[JobQueueDepth] != 2 {
			t.Errorf("line %d queue depth = %d", lines, line.Gauges[JobQueueDepth])
		}
		if line.Hist[JobLatencyPrefix+"solve"].Count != 1 {
			t.Errorf("line %d solve latency count = %d", lines, line.Hist[JobLatencyPrefix+"solve"].Count)
		}
	}
	if lines != n+1 {
		t.Fatalf("wrote %d lines, want %d", lines, n+1)
	}

	// No line after Stop, and Stop is idempotent.
	written := buf.Len()
	e.Stop()
	if buf.Len() != written || e.Lines() != n+1 {
		t.Error("emitter wrote after Stop")
	}
}

// TestEmitterRegistersNothing: a line lists what the registry holds and
// nothing else.  A client's registry (fem2 -connect -metrics) holds
// client.* counters only, and its lines must not grow a job.done.
func TestEmitterRegistersNothing(t *testing.T) {
	r := New()
	r.Counter(ClientRetries).Inc()
	var buf bytes.Buffer
	ticks := make(chan time.Time)
	e := NewEmitter(r, EmitterOpts{W: &buf, Ticks: ticks})
	e.Start()
	ticks <- time.Now()
	waitLines(t, e, 1)
	e.Stop()
	sc := bufio.NewScanner(&buf)
	for sc.Scan() { // the tick's line and the closing one
		var line struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, sc.Text())
		}
		if want := map[string]int64{ClientRetries: 1}; !reflect.DeepEqual(line.Counters, want) {
			t.Errorf("counters = %v, want %v", line.Counters, want)
		}
	}
	if snap := r.Snapshot(); len(snap.Counters) != 1 {
		t.Errorf("the emitter registered counters: %+v", snap.Counters)
	}
}

func waitLines(t *testing.T, e *Emitter, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for e.Lines() < want {
		if time.Now().After(deadline) {
			t.Fatalf("emitter stuck at %d lines, want %d", e.Lines(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEmitterRealTicker smoke-tests the wall-clock path the binaries
// use: a short interval produces at least one line.
func TestEmitterRealTicker(t *testing.T) {
	r := New()
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	e := NewEmitter(r, EmitterOpts{Interval: 5 * time.Millisecond, W: w})
	e.Start()
	waitLines(t, e, 2)
	e.Stop()
	mu.Lock()
	defer mu.Unlock()
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("invalid JSON line: %v", err)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
