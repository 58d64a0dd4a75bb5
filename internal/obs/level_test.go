package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		LevelAUVM:  "AUVM",
		LevelNAVM:  "NAVM",
		LevelSPVM:  "SPVM",
		LevelARCH:  "ARCH",
		Level(9):   "Level(9)",
		Level(-1):  "Level(-1)",
		Level(100): "Level(100)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestLevelsOrder(t *testing.T) {
	want := []Level{LevelAUVM, LevelNAVM, LevelSPVM, LevelARCH}
	ls := Levels()
	if len(ls) != len(want) {
		t.Fatalf("Levels() returned %d levels, want %d", len(ls), len(want))
	}
	for i := range want {
		if ls[i] != want[i] {
			t.Errorf("Levels()[%d] = %v, want %v", i, ls[i], want[i])
		}
	}
}

// TestLevelReportLayout pins the table byte for byte: a column per
// counter name, sorted, a row per level, top-down, and 0 where a level
// has no such counter.
func TestLevelReportLayout(t *testing.T) {
	r := New()
	r.Counter(NAVMFlops).Add(42)
	r.Counter(ARCHCycles).Add(7)
	r.Counter(NAVMMsgs).Add(3)
	r.Counter(ARCHMsgs).Add(5)
	want := "" +
		"level          cycles          flops           msgs\n" +
		"AUVM                0              0              0\n" +
		"NAVM                0             42              3\n" +
		"SPVM                0              0              0\n" +
		"ARCH                7              0              5\n"
	if got := LevelReport(r.Snapshot()); got != want {
		t.Errorf("LevelReport =\n%s\nwant\n%s", got, want)
	}
}

// TestLevelReportOmitsZeroColumns: a counter that is zero at every level
// is registered but gets no column.
func TestLevelReportOmitsZeroColumns(t *testing.T) {
	r := New()
	r.Counter(NAVMFlops).Inc()
	r.Counter(SPVMWordsFreed)
	if got := LevelReport(r.Snapshot()); strings.Contains(got, "words_freed") {
		t.Errorf("LevelReport included an all-zero column:\n%s", got)
	}
}

// TestLevelReportReadsOnlyLevelPrefixes: the service's own counters
// share the registry and stay out of the table.
func TestLevelReportReadsOnlyLevelPrefixes(t *testing.T) {
	r := New()
	r.Counter(AUVMOps).Add(2)
	r.Counter(JobDone).Add(9)
	r.Counter("auvmx.ops").Add(9)
	r.Gauge("navm.depth").Set(9)
	want := "" +
		"level             ops\n" +
		"AUVM                2\n" +
		"NAVM                0\n" +
		"SPVM                0\n" +
		"ARCH                0\n"
	if got := LevelReport(r.Snapshot()); got != want {
		t.Errorf("LevelReport =\n%s\nwant\n%s", got, want)
	}
	empty := "level \nAUVM  \nNAVM  \nSPVM  \nARCH  \n"
	if got := LevelReport(Snapshot{}); got != empty {
		t.Errorf("LevelReport of an empty snapshot = %q, want %q", got, empty)
	}
}

// TestLevelCountersConcurrentAdd: many goroutines counting into one
// level counter, as the simulated PEs do, lose no update.
func TestLevelCountersConcurrentAdd(t *testing.T) {
	r := New()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter(SPVMWordsAlloc).Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Counter(SPVMWordsAlloc); got != goroutines*perG {
		t.Errorf("concurrent adds lost updates: got %d, want %d", got, goroutines*perG)
	}
}

// TestLevelCountersNilRegistryIsNoop: a simulation run without a
// registry counts into nil sinks, and its report is the empty table.
func TestLevelCountersNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter(NAVMFlops).Add(10) // must not panic
	r.Counter(ARCHCycles).Inc()
	if got := r.Counter(NAVMFlops).Load(); got != 0 {
		t.Errorf("nil registry counter = %d, want 0", got)
	}
	s := r.Snapshot()
	if got := s.Counter(NAVMFlops); got != 0 {
		t.Errorf("nil registry snapshot counter = %d, want 0", got)
	}
	empty := "level \nAUVM  \nNAVM  \nSPVM  \nARCH  \n"
	if got := LevelReport(s); got != empty {
		t.Errorf("LevelReport of a nil registry = %q, want %q", got, empty)
	}
}

// TestLevelSnapshotIsCopy: a snapshot taken before a phase is not moved
// by later counts, and editing it does not move the registry — the
// experiments subtract two snapshots to get one phase's counts.
func TestLevelSnapshotIsCopy(t *testing.T) {
	r := New()
	r.Counter(AUVMOps).Add(2)
	snap := r.Snapshot()
	r.Counter(AUVMOps).Add(5)
	if got := snap.Counter(AUVMOps); got != 2 {
		t.Errorf("later adds changed the snapshot: got %d, want 2", got)
	}
	for i := range snap.Counters {
		snap.Counters[i].Value = 999
	}
	if got := r.Counter(AUVMOps).Load(); got != 7 {
		t.Errorf("mutating the snapshot changed the registry: got %d, want 7", got)
	}
}
