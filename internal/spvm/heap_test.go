package spvm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHeapAllocFreeBasic(t *testing.T) {
	h := NewHeap(100)
	a, err := h.Alloc(30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(70)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two allocations share an address")
	}
	if h.Allocated() != 100 || h.HighWater() != 100 {
		t.Errorf("Allocated=%d HighWater=%d", h.Allocated(), h.HighWater())
	}
	if _, err := h.Alloc(1); !errors.Is(err, ErrHeapFull) {
		t.Errorf("full heap alloc: %v", err)
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if h.Allocated() != 70 {
		t.Errorf("Allocated after free = %d", h.Allocated())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapRejectsBadRequests(t *testing.T) {
	h := NewHeap(10)
	if _, err := h.Alloc(0); err == nil {
		t.Error("zero alloc accepted")
	}
	if _, err := h.Alloc(-5); err == nil {
		t.Error("negative alloc accepted")
	}
	if err := h.Free(3); !errors.Is(err, ErrBadFree) {
		t.Error("free of unallocated address accepted")
	}
	a, _ := h.Alloc(5)
	h.Free(a)
	if err := h.Free(a); !errors.Is(err, ErrBadFree) {
		t.Error("double free accepted")
	}
}

func TestNewHeapPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHeap(0) did not panic")
		}
	}()
	NewHeap(0)
}

func TestHeapSplitAndCoalesce(t *testing.T) {
	h := NewHeap(100)
	a, _ := h.Alloc(20)
	b, _ := h.Alloc(20)
	c, _ := h.Alloc(20)
	if h.BlockCount() != 4 { // three allocated + one free tail
		t.Errorf("BlockCount = %d, want 4", h.BlockCount())
	}
	// Free the middle one: no coalesce possible.
	h.Free(b)
	if h.LargestFree() != 40 {
		t.Errorf("LargestFree = %d, want 40 (tail)", h.LargestFree())
	}
	if h.Fragmentation() == 0 {
		t.Error("fragmented heap reports 0 fragmentation")
	}
	// Free a: coalesces with b's hole → 40-word hole.
	h.Free(a)
	// Free c: everything coalesces into one 100-word block.
	h.Free(c)
	if h.BlockCount() != 1 {
		t.Errorf("BlockCount after full free = %d, want 1", h.BlockCount())
	}
	if h.LargestFree() != 100 || h.Fragmentation() != 0 {
		t.Errorf("LargestFree=%d Fragmentation=%g", h.LargestFree(), h.Fragmentation())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapFragmentationBlocksLargeAlloc(t *testing.T) {
	h := NewHeap(100)
	var addrs []int64
	for i := 0; i < 10; i++ {
		a, err := h.Alloc(10)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	// Free alternating blocks: 50 words free but largest hole is 10.
	for i := 0; i < 10; i += 2 {
		h.Free(addrs[i])
	}
	if _, err := h.Alloc(20); !errors.Is(err, ErrHeapFull) {
		t.Error("allocation larger than any hole succeeded")
	}
	if h.FailedAllocs() != 1 {
		t.Errorf("FailedAllocs = %d", h.FailedAllocs())
	}
	if f := h.Fragmentation(); f != 0.8 {
		t.Errorf("Fragmentation = %g, want 0.8", f)
	}
	// A 10-word allocation still fits in a hole (first-fit reuse).
	if _, err := h.Alloc(10); err != nil {
		t.Errorf("hole reuse failed: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapOpsCounters(t *testing.T) {
	h := NewHeap(100)
	a, _ := h.Alloc(10)
	h.Alloc(10)
	h.Free(a)
	allocs, frees := h.Ops()
	if allocs != 2 || frees != 1 {
		t.Errorf("Ops = %d, %d", allocs, frees)
	}
	if h.Size() != 100 {
		t.Errorf("Size = %d", h.Size())
	}
}

// Property: after any random alloc/free workload the heap invariants hold
// and all memory is recovered once everything is freed.
func TestQuickHeapInvariants(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHeap(1 << 12)
		var live []int64
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				if a, err := h.Alloc(int64(op%200) + 1); err == nil {
					live = append(live, a)
				}
			} else {
				i := rng.Intn(len(live))
				if err := h.Free(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if h.CheckInvariants() != nil {
				return false
			}
		}
		for _, a := range live {
			if err := h.Free(a); err != nil {
				return false
			}
		}
		return h.Allocated() == 0 && h.BlockCount() == 1 && h.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTaskStateString(t *testing.T) {
	for st, want := range map[TaskState]string{
		TaskReady: "ready", TaskRunning: "running",
	} {
		if st.String() != want {
			t.Errorf("TaskState %d = %q, want %q", st, st.String(), want)
		}
	}
}
