package store_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
)

// guardOverFaults builds a Guard over a fault-wrapped MemStore with the
// background probe disabled (tests drive recovery via Probe).
func guardOverFaults(t *testing.T, in *fault.Injector, opts store.GuardOpts) *store.Guard {
	t.Helper()
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = -1
	}
	g := store.NewGuard(fault.NewStore(store.NewMemStore(), in), opts)
	t.Cleanup(func() { g.Close() })
	return g
}

func TestGuardTripsAfterConsecutiveFailures(t *testing.T) {
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpPut, Fault: fault.Fault{Err: fault.ErrIO}})
	in.Disarm()
	g := guardOverFaults(t, in, store.GuardOpts{})

	if err := g.Put("k", []byte("v")); err != nil {
		t.Fatalf("healthy Put: %v", err)
	}
	in.Arm()
	for i := 0; i < store.GuardThreshold; i++ {
		if g.Degraded() {
			t.Fatalf("degraded after only %d failures (threshold %d)", i, store.GuardThreshold)
		}
		if err := g.Put("k", []byte("v")); !errors.Is(err, fault.ErrIO) {
			t.Fatalf("failure %d: err = %v, want ErrIO", i, err)
		}
	}
	if !g.Degraded() {
		t.Fatal("guard not degraded after 3 consecutive write failures")
	}
	if g.Trips() != 1 {
		t.Fatalf("Trips() = %d, want 1", g.Trips())
	}

	// Degraded: writes refuse fast with ErrDegraded, without touching
	// the backend; reads still serve.
	puts := in.Calls(fault.OpPut)
	if err := g.Put("k2", nil); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("degraded Put = %v, want ErrDegraded", err)
	}
	if err := g.Batch([]store.Op{store.Put("k3", nil)}); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("degraded Batch = %v, want ErrDegraded", err)
	}
	if err := g.Delete("k"); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("degraded Delete = %v, want ErrDegraded", err)
	}
	if got := in.Calls(fault.OpPut); got != puts {
		t.Fatalf("degraded writes reached the backend (%d -> %d calls)", puts, got)
	}
	if v, err := g.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("degraded Get = %q, %v, want v", v, err)
	}

	// Probe fails while the weather holds, recovers once it clears.
	if g.Probe() {
		t.Fatal("Probe succeeded while faults are still armed")
	}
	in.Disarm()
	if !g.Probe() {
		t.Fatal("Probe failed after faults cleared")
	}
	if g.Degraded() {
		t.Fatal("guard still degraded after successful probe")
	}
	if err := g.Put("k2", []byte("back")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
}

func TestGuardSuccessResetsFailureCount(t *testing.T) {
	// Fail, fail, succeed, fail, fail, succeed, ... — never 3 in a row,
	// so the guard must never trip.
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpPut, Every: 3, Fault: fault.Fault{Err: fault.ErrIO}})
	g := guardOverFaults(t, in, store.GuardOpts{})
	for i := 0; i < 30; i++ {
		g.Put("k", []byte("v"))
		if g.Degraded() {
			t.Fatalf("guard tripped at write %d despite interleaved successes", i)
		}
	}
}

func TestGuardBackgroundProbeRecovers(t *testing.T) {
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpPut, Fault: fault.Fault{Err: fault.ErrIO}})
	flips := make(chan bool, 4)
	g := store.NewGuard(fault.NewStore(store.NewMemStore(), in), store.GuardOpts{
		ProbeInterval: 5 * time.Millisecond,
		OnChange:      func(d bool) { flips <- d },
	})
	defer g.Close()

	for i := 0; i < store.GuardThreshold; i++ {
		if err := g.Put("k", nil); !errors.Is(err, fault.ErrIO) {
			t.Fatalf("failure %d: Put = %v, want ErrIO", i, err)
		}
	}
	select {
	case d := <-flips:
		if !d {
			t.Fatal("first OnChange reported recovery, want trip")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("guard never reported the trip")
	}
	in.Disarm()
	select {
	case d := <-flips:
		if d {
			t.Fatal("second OnChange reported trip, want recovery")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("background probe never recovered the guard")
	}
	if g.Degraded() {
		t.Fatal("guard degraded after background recovery")
	}
	if err := g.Put("k", nil); err != nil {
		t.Fatalf("Put after background recovery: %v", err)
	}
}

// Regression: Close must stop the background probe goroutine even
// while the backend is still failing — a daemon that cycles guards
// (or a test suite) must not accumulate probe loops.
func TestGuardProbeGoroutineStopsOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		in := fault.NewInjector(1, fault.Rule{Op: fault.OpPut, Fault: fault.Fault{Err: fault.ErrIO}})
		g := store.NewGuard(fault.NewStore(store.NewMemStore(), in), store.GuardOpts{
			ProbeInterval: time.Millisecond,
		})
		for k := 0; k < store.GuardThreshold; k++ {
			if err := g.Put("k", nil); !errors.Is(err, fault.ErrIO) {
				t.Fatalf("iteration %d: Put = %v, want ErrIO", i, err)
			}
		}
		if !g.Degraded() {
			t.Fatalf("iteration %d: guard not degraded after %d failures", i, store.GuardThreshold)
		}
		// Close with the probe loop live and the weather still bad: the
		// loop must exit on the stop channel, not on recovery.
		g.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("probe goroutines leaked: %d before, %d after 10 guard lifecycles",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGuardNotFoundIsNotAFailure(t *testing.T) {
	g := store.NewGuard(store.NewMemStore(), store.GuardOpts{ProbeInterval: -1})
	defer g.Close()
	// Reads of missing keys and deletes of missing keys must not count
	// toward degradation.
	for i := 0; i < 5; i++ {
		if _, err := g.Get("missing"); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("Get = %v", err)
		}
		if err := g.Delete("missing"); err != nil {
			t.Fatalf("Delete = %v", err)
		}
	}
	if g.Degraded() {
		t.Fatal("guard tripped on not-found reads")
	}
}
