package navm

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/hgraph"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/spvm"
)

func TestNewArrayAndOwnership(t *testing.T) {
	rt, root := newTestRuntime(t)
	a, err := root.NewArray("K", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Words() != 16 || a.HomeCluster() != root.pe.Cluster {
		t.Errorf("array %+v", a)
	}
	if rt.Lookup("K") != a {
		t.Error("directory lookup failed")
	}
	// Owner direct access works.
	if err := a.Set(root, 1, 2, 7.5); err != nil {
		t.Fatal(err)
	}
	v, err := a.At(root, 1, 2)
	if err != nil || v != 7.5 {
		t.Errorf("At = %g, %v", v, err)
	}
	// Shared memory accounted.
	if used := rt.Machine().Cluster(a.HomeCluster()).Memory.Used(); used != 16 {
		t.Errorf("cluster memory used = %d", used)
	}
	// Duplicate name rejected.
	if _, err := root.NewArray("K", 2, 2); err == nil {
		t.Error("duplicate array name accepted")
	}
	// Free releases memory.
	if err := a.Free(root); err != nil {
		t.Fatal(err)
	}
	if used := rt.Machine().Cluster(root.pe.Cluster).Memory.Used(); used != 0 {
		t.Errorf("memory after free = %d", used)
	}
	if err := a.Free(root); err == nil {
		t.Error("double free accepted")
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

func TestNonOwnerDirectAccessDenied(t *testing.T) {
	rt, root := newTestRuntime(t)
	a, _ := root.NewArray("owned", 4, 4)
	errCh := make(chan error, 3)
	rt.RegisterTaskType("intruder", 32, 4, func(tc *TaskCtx, replica int) error {
		errCh <- a.Set(tc, 0, 0, 1)
		_, err := a.At(tc, 0, 0)
		errCh <- err
		errCh <- a.FillRow(tc, 0, make([]float64, 4))
		return nil
	})
	g, _ := root.Initiate("intruder", 1, nil)
	if err := g.Wait(root); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := <-errCh; !errors.Is(err, ErrNotOwner) {
			t.Errorf("non-owner access %d: %v", i, err)
		}
	}
}

func TestWindowReadWriteRoundTrip(t *testing.T) {
	_, root := newTestRuntime(t)
	a, _ := root.NewArray("m", 4, 5)
	for i := 0; i < 4; i++ {
		row := make([]float64, 5)
		for j := range row {
			row[j] = float64(10*i + j)
		}
		a.FillRow(root, i, row)
	}
	w, err := NewWindow(a, 1, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := w.Read(root)
	want := linalg.Vector{11, 12, 13, 21, 22, 23}
	if linalg.MaxAbsDiff(got, want) != 0 {
		t.Errorf("window read %v, want %v", got, want)
	}
	if err := w.Write(root, linalg.Vector{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.At(root, 2, 3); v != 6 {
		t.Errorf("after write a[2][3] = %g", v)
	}
	if err := w.Write(root, linalg.Vector{1}); err == nil {
		t.Error("size-mismatched write accepted")
	}
	if v, err := w.ReadAt(root, 0, 1); err != nil || v != 2 {
		t.Errorf("ReadAt = %g, %v", v, err)
	}
	if _, err := w.ReadAt(root, 5, 0); err == nil {
		t.Error("out-of-window ReadAt accepted")
	}
}

func TestWindowKindsAndValidation(t *testing.T) {
	_, root := newTestRuntime(t)
	a, _ := root.NewArray("v", 6, 4)
	if w, err := RowWindow(a, 2, 2); err != nil || w.Kind != WinRow || w.Cols != 4 {
		t.Errorf("RowWindow %+v, %v", w, err)
	}
	if w, err := ColWindow(a, 1, 2); err != nil || w.Kind != WinCol || w.Rows != 6 {
		t.Errorf("ColWindow %+v, %v", w, err)
	}
	bad := []struct{ r0, r, c0, c int }{
		{-1, 1, 0, 1}, {0, 0, 0, 1}, {0, 7, 0, 1}, {0, 1, 3, 2},
	}
	for _, b := range bad {
		if _, err := NewWindow(a, b.r0, b.r, b.c0, b.c); err == nil {
			t.Errorf("bad window %+v accepted", b)
		}
	}
}

func TestSubWindowComposition(t *testing.T) {
	_, root := newTestRuntime(t)
	a, _ := root.NewArray("s", 8, 8)
	w, _ := NewWindow(a, 2, 4, 2, 4)
	s, err := w.Sub(1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Row0 != 3 || s.Col0 != 3 || s.Rows != 2 || s.Cols != 2 {
		t.Errorf("sub = %+v", s)
	}
	if _, err := w.Sub(3, 3, 0, 1); err == nil {
		t.Error("overflowing sub-window accepted")
	}
}

// Property: partitioning a window twice equals one direct sub-window.
func TestQuickSubWindowAssociative(t *testing.T) {
	_, root := newTestRuntime(t)
	a, _ := root.NewArray("q", 16, 16)
	w, _ := NewWindow(a, 0, 16, 0, 16)
	f := func(r1, c1, r2, c2 uint8) bool {
		or1, oc1 := int(r1%8), int(c1%8)
		or2, oc2 := int(r2%4), int(c2%4)
		s1, err := w.Sub(or1, 8, oc1, 8)
		if err != nil {
			return false
		}
		s2, err := s1.Sub(or2, 4, oc2, 4)
		if err != nil {
			return false
		}
		direct, err := w.Sub(or1+or2, 4, oc1+oc2, 4)
		if err != nil {
			return false
		}
		return s2.Row0 == direct.Row0 && s2.Col0 == direct.Col0 &&
			s2.Rows == direct.Rows && s2.Cols == direct.Cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWindowDescRoundTripAndGrammar(t *testing.T) {
	rt, root := newTestRuntime(t)
	a, _ := root.NewArray("g", 10, 10)
	w, _ := NewWindow(a, 2, 3, 4, 5)
	d := w.Desc()
	w2, err := rt.WindowFromDesc(d)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Row0 != w.Row0 || w2.Rows != w.Rows || w2.Col0 != w.Col0 || w2.Cols != w.Cols || w2.Arr != a {
		t.Errorf("desc round trip: %+v vs %+v", w2, w)
	}
	// The descriptor satisfies the formal window grammar via the SPVM
	// message embedding.
	msg := descMessage(d)
	if errs := hgraph.SPVMMessageGrammar().Validate(msg.ToHGraph()); len(errs) > 0 {
		t.Errorf("window descriptor violates grammar: %v", errs)
	}
	// Unknown array rejected.
	d2 := *d
	d2.Array = "ghost"
	if _, err := rt.WindowFromDesc(&d2); err == nil {
		t.Error("window onto unknown array accepted")
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

// descMessage wraps a window descriptor in a remote-call message, the only
// message type carrying windows.
func descMessage(d *spvm.WindowDesc) *spvm.Message {
	return &spvm.Message{Type: spvm.MsgRemoteCall, Procedure: "p", Caller: 1, Window: d}
}
