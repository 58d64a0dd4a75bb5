package obs

import (
	"sync"
	"testing"
	"time"
)

// The hot-path contract: observing a metric allocates nothing.  CI runs
// these with -benchmem; the committed overhead numbers in
// docs/observability.md come from BenchmarkObsOverhead at the repo root,
// which measures the instrumented scheduler and factor cache end to end.

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := New().Gauge("bench.gauge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("bench.hist")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := New()
	for _, n := range []string{"a", "b", "c", "d"} {
		r.Counter("count." + n).Inc()
		r.Histogram("lat." + n).Observe(time.Millisecond)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

// TestHotPathZeroAlloc pins the zero-alloc claim as a test so it fails
// loudly in plain `go test`, not only when someone reads bench output.
func TestHotPathZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter("z.c")
	g := r.Gauge("z.g")
	h := r.Histogram("z.h")
	// The per-verb families are on the same path: every request and every
	// job observes one member, named by a verb the caller holds as a string.
	f := r.HistogramFamily("z.family.")
	verbs := []string{"solve", "submit", "wait"}
	for _, v := range verbs {
		if f.Get(v) != r.Histogram("z.family."+v) {
			t.Fatalf("family member %q is not the registry's histogram of that name", v)
		}
	}
	var none *HistogramFamily
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(7)
		h.Observe(time.Microsecond)
		for _, v := range verbs {
			f.Get(v).Observe(time.Microsecond)
		}
		none.Get("solve").Observe(time.Microsecond)
	}); n != 0 {
		t.Errorf("hot path allocates %.1f per op, want 0", n)
	}
	if got := f.Get("wait").Count(); got != 101 {
		t.Errorf("family member observed %d times, want 101 (AllocsPerRun's warm-up included)", got)
	}
}

// TestHistogramFamilyConcurrentFirstUse: members resolved for the first
// time from many goroutines at once all land on the registry's one
// histogram per name, and none is lost to a racing copy.
func TestHistogramFamilyConcurrentFirstUse(t *testing.T) {
	r := New()
	f := r.HistogramFamily("race.")
	members := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range members {
				f.Get(members[(i+g)%len(members)]).Observe(time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	for _, m := range members {
		if got := r.Histogram("race." + m).Count(); got != 8 {
			t.Errorf("race.%s observed %d times, want 8", m, got)
		}
	}
}
