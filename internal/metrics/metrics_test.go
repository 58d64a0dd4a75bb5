package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
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
	ls := Levels()
	if len(ls) != 4 {
		t.Fatalf("Levels() returned %d levels, want 4", len(ls))
	}
	want := []Level{LevelAUVM, LevelNAVM, LevelSPVM, LevelARCH}
	for i := range want {
		if ls[i] != want[i] {
			t.Errorf("Levels()[%d] = %v, want %v", i, ls[i], want[i])
		}
	}
}

func TestAddGet(t *testing.T) {
	c := NewCollector()
	c.Add(LevelNAVM, CtrFlops, 10)
	c.Add(LevelNAVM, CtrFlops, 5)
	c.Add(LevelARCH, CtrFlops, 3)
	if got := c.Get(LevelNAVM, CtrFlops); got != 15 {
		t.Errorf("Get(NAVM, flops) = %d, want 15", got)
	}
	if got := c.Get(LevelARCH, CtrFlops); got != 3 {
		t.Errorf("Get(ARCH, flops) = %d, want 3", got)
	}
	if got := c.Get(LevelAUVM, CtrFlops); got != 0 {
		t.Errorf("Get(AUVM, flops) = %d, want 0", got)
	}
	if got := c.Total(CtrFlops); got != 18 {
		t.Errorf("Total(flops) = %d, want 18", got)
	}
}

func TestAddFlops(t *testing.T) {
	c := NewCollector()
	c.AddFlops(LevelNAVM, 7)
	if got := c.Get(LevelNAVM, CtrFlops); got != 7 {
		t.Errorf("AddFlops: got %d, want 7", got)
	}
}

func TestNilCollectorIsNoop(t *testing.T) {
	var c *Collector
	c.Add(LevelNAVM, CtrFlops, 10) // must not panic
	c.AddFlops(LevelARCH, 1)
	c.Reset()
	if got := c.Get(LevelNAVM, CtrFlops); got != 0 {
		t.Errorf("nil Get = %d, want 0", got)
	}
	if got := c.Total(CtrFlops); got != 0 {
		t.Errorf("nil Total = %d, want 0", got)
	}
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Errorf("nil Snapshot has %d levels, want 0", len(snap))
	}
}

func TestReset(t *testing.T) {
	c := NewCollector()
	c.Add(LevelSPVM, CtrMsgs, 4)
	c.Reset()
	if got := c.Get(LevelSPVM, CtrMsgs); got != 0 {
		t.Errorf("after Reset, Get = %d, want 0", got)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	c := NewCollector()
	c.Add(LevelAUVM, CtrOps, 2)
	snap := c.Snapshot()
	snap[LevelAUVM][CtrOps] = 999
	if got := c.Get(LevelAUVM, CtrOps); got != 2 {
		t.Errorf("mutating snapshot changed collector: got %d, want 2", got)
	}
}

func TestDiff(t *testing.T) {
	c := NewCollector()
	c.Add(LevelNAVM, CtrMsgs, 10)
	prev := c.Snapshot()
	c.Add(LevelNAVM, CtrMsgs, 7)
	c.Add(LevelARCH, CtrCycles, 3)
	d := c.Diff(prev)
	if d[LevelNAVM][CtrMsgs] != 7 {
		t.Errorf("Diff NAVM msgs = %d, want 7", d[LevelNAVM][CtrMsgs])
	}
	if d[LevelARCH][CtrCycles] != 3 {
		t.Errorf("Diff ARCH cycles = %d, want 3", d[LevelARCH][CtrCycles])
	}
}

func TestConcurrentAdd(t *testing.T) {
	c := NewCollector()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(LevelSPVM, CtrMsgs, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(LevelSPVM, CtrMsgs); got != goroutines*perG {
		t.Errorf("concurrent Add lost updates: got %d, want %d", got, goroutines*perG)
	}
}

func TestReportContainsLevelsAndCounters(t *testing.T) {
	c := NewCollector()
	c.Add(LevelNAVM, CtrFlops, 42)
	c.Add(LevelARCH, CtrCycles, 7)
	r := c.Report()
	for _, want := range []string{"AUVM", "NAVM", "SPVM", "ARCH", CtrFlops, CtrCycles, "42", "7"} {
		if !strings.Contains(r, want) {
			t.Errorf("Report missing %q:\n%s", want, r)
		}
	}
}

func TestReportOmitsZeroColumns(t *testing.T) {
	c := NewCollector()
	c.Add(LevelNAVM, CtrFlops, 1)
	c.Add(LevelNAVM, "never", 0)
	r := c.Report()
	if strings.Contains(r, "never") {
		t.Errorf("Report included all-zero column:\n%s", r)
	}
}

// Property: the sum of per-level values always equals Total, for any
// sequence of adds.
func TestQuickTotalIsSumOfLevels(t *testing.T) {
	f := func(deltas []int16, levels []uint8) bool {
		c := NewCollector()
		var want int64
		n := len(deltas)
		if len(levels) < n {
			n = len(levels)
		}
		for i := 0; i < n; i++ {
			l := Level(int(levels[i]) % 4)
			c.Add(l, CtrWordsAlloc, int64(deltas[i]))
			want += int64(deltas[i])
		}
		return c.Total(CtrWordsAlloc) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Diff(prev) after extra adds reports exactly the extra adds.
func TestQuickDiffReportsDelta(t *testing.T) {
	f := func(first, second []int8) bool {
		c := NewCollector()
		for _, d := range first {
			c.Add(LevelSPVM, CtrMsgWords, int64(d))
		}
		prev := c.Snapshot()
		var want int64
		for _, d := range second {
			c.Add(LevelSPVM, CtrMsgWords, int64(d))
			want += int64(d)
		}
		d := c.Diff(prev)
		return d[LevelSPVM][CtrMsgWords] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
