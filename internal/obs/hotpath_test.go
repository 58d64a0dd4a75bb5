package obs

import (
	"sync"
	"testing"
	"time"
)

// TestHotPathZeroAlloc pins the hot-path contract — observing a metric
// allocates nothing — as a test, so it fails loudly in plain `go test`.
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
