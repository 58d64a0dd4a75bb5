package navm

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/hgraph"
	"repro/internal/linalg"
	"repro/internal/obs"
)

func TestNewArrayAndOwnership(t *testing.T) {
	rt, root, reg := newCountedRuntime(t)
	a, err := root.NewArray("K", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Owner != root.ID || a.HomeCluster() != root.pe.Cluster {
		t.Errorf("array %+v", a)
	}
	// The words come out of the owner's cluster shared memory.
	if used := rt.Machine().Cluster(a.HomeCluster()).Memory.HighWater(); used != 16 {
		t.Errorf("cluster memory used = %d", used)
	}
	if got := reg.Counter(obs.NAVMWordsAlloc).Load(); got != 16 {
		t.Errorf("words_alloc = %d", got)
	}
}

func TestArrayBadShapes(t *testing.T) {
	_, root := newTestRuntime(t)
	for _, shape := range [][2]int{{0, 4}, {4, 0}, {-1, 4}} {
		if _, err := root.NewArray("bad", shape[0], shape[1]); err == nil {
			t.Errorf("shape %v accepted", shape)
		}
	}
}

func TestWindowRead(t *testing.T) {
	_, root := newTestRuntime(t)
	a, _ := root.NewArray("m", 4, 5)
	for i := range a.data {
		a.data[i] = float64(10*(i/5) + i%5)
	}
	w := &Window{Arr: a, Row0: 1, Rows: 2, Col0: 1, Cols: 3}
	got := w.Read(root)
	want := linalg.Vector{11, 12, 13, 21, 22, 23}
	if linalg.MaxAbsDiff(got, want) != 0 {
		t.Errorf("window read %v, want %v", got, want)
	}
	if v, err := w.ReadAt(root, 1, 2); err != nil || v != 23 {
		t.Errorf("ReadAt = %g, %v", v, err)
	}
	if _, err := w.ReadAt(root, 5, 0); err == nil {
		t.Error("out-of-window ReadAt accepted")
	}
}

func TestRowWindowValidation(t *testing.T) {
	_, root := newTestRuntime(t)
	a, _ := root.NewArray("v", 6, 4)
	if w, err := RowWindow(a, 2, 2); err != nil || w.Row0 != 2 || w.Rows != 2 || w.Col0 != 0 || w.Cols != 4 {
		t.Errorf("RowWindow %+v, %v", w, err)
	}
	for _, b := range [][2]int{{-1, 1}, {0, 0}, {0, 7}, {5, 2}} {
		if _, err := RowWindow(a, b[0], b[1]); err == nil {
			t.Errorf("bad row window %v accepted", b)
		}
	}
}

func TestRemoteVsLocalWindowAccounting(t *testing.T) {
	rt, root, reg := newCountedRuntime(t)
	localAccesses, remoteAccesses := reg.Counter(obs.NAVMLocalAccesses), reg.Counter(obs.NAVMRemoteAccesses)
	a, _ := root.NewArray("acct", 16, 1)
	w, _ := RowWindow(a, 0, 16)

	// Local read by the owner.
	w.Read(root)
	local := localAccesses.Load()
	if local < 1 {
		t.Errorf("local_accesses = %d", local)
	}
	if got := remoteAccesses.Load(); got != 0 {
		t.Errorf("remote_accesses before remote read = %d", got)
	}

	// Force a reader onto the other cluster.
	homeCluster := a.HomeCluster()
	// Replicas run concurrently on different PEs, so the count is atomic.
	var remoteReads atomic.Int64
	rt.RegisterTaskType("reader", 32, 4, func(tc *TaskCtx, replica int) error {
		if tc.pe.Cluster != homeCluster {
			w.Read(tc)
			remoteReads.Add(1)
		}
		return nil
	})
	// Spawn enough replications that at least one lands off-cluster.
	g, _ := root.Initiate("reader", 8, nil)
	if err := g.Wait(root); err != nil {
		t.Fatal(err)
	}
	if remoteReads.Load() == 0 {
		t.Fatal("no replication landed on a remote cluster")
	}
	if got := remoteAccesses.Load(); got != remoteReads.Load() {
		t.Errorf("remote_accesses = %d, want %d", got, remoteReads.Load())
	}
	// Remote reads crossed the simulated network.
	if rt.Machine().Network().TotalMessages() == 0 {
		t.Error("remote window reads generated no network traffic")
	}
}

// TestTaskRecordsAndWindowsMatchGrammars validates, from inside running
// task bodies, each task's own activation record and every window it
// opens against the formal grammars of their layers.
func TestTaskRecordsAndWindowsMatchGrammars(t *testing.T) {
	rt, root := newTestRuntime(t)
	a, err := root.NewArray("K", 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	activation, window := hgraph.ActivationRecordGrammar(), hgraph.WindowGrammar()
	var opened atomic.Int64
	rt.RegisterTaskType("spec", 32, 4, func(tc *TaskCtx, replica int) error {
		if errs := activation.Validate(tc.kern.Task(tc.ID).ToHGraph()); len(errs) > 0 {
			return fmt.Errorf("task %d: live activation record violates formal grammar: %v", tc.ID, errs)
		}
		row, err := RowWindow(a, replica, 1)
		if err != nil {
			return err
		}
		all, err := RowWindow(a, 0, a.Rows)
		if err != nil {
			return err
		}
		two, err := RowWindow(a, 1, 2)
		if err != nil {
			return err
		}
		for _, w := range []*Window{row, all, two} {
			w.Read(tc)
			d := w.Desc()
			if d.Kind != "row" || d.Owner != root.ID || d.Array != "K" || d.Row0 != int64(w.Row0) || d.Rows != int64(w.Rows) {
				return fmt.Errorf("window %d+%d described as %+v", w.Row0, w.Rows, d)
			}
			if errs := window.Validate(d.ToHGraph()); len(errs) > 0 {
				return fmt.Errorf("window %d+%d: live descriptor violates formal grammar: %v", w.Row0, w.Rows, errs)
			}
			opened.Add(1)
		}
		return nil
	})
	g, err := root.Initiate("spec", 4, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(root); err != nil {
		t.Fatal(err)
	}
	if got := opened.Load(); got != 12 {
		t.Errorf("%d windows validated, want 12", got)
	}
}
