package navm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/spvm"
)

func newTestRuntime(t *testing.T) (*Runtime, *TaskCtx) {
	t.Helper()
	rt, root, _ := newCountedRuntime(t)
	return rt, root
}

// newCountedRuntime is newTestRuntime with the registry it counts into.
func newCountedRuntime(t *testing.T) (*Runtime, *TaskCtx, *obs.Registry) {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.Clusters = 2
	cfg.PEsPerCluster = 4
	rt := NewRuntime(arch.MustNew(cfg))
	reg := obs.New()
	rt.AttachInstrumentation(reg)
	root, err := rt.NewRootTask()
	if err != nil {
		t.Fatal(err)
	}
	return rt, root, reg
}

func TestRootTaskRegistered(t *testing.T) {
	rt, root := newTestRuntime(t)
	if root.ID <= 0 {
		t.Errorf("root id = %d", root.ID)
	}
	if rt.Task(root.ID) != root {
		t.Error("root not in task table")
	}
	rec := rt.Kernel(root.pe.Cluster).Task(root.ID)
	if rec == nil || rec.State != spvm.TaskRunning {
		t.Errorf("kernel record %+v", rec)
	}
}

func TestInitiateRunsReplications(t *testing.T) {
	rt, root, reg := newCountedRuntime(t)
	var ran int64
	err := rt.RegisterTaskType("count", 128, 16, func(tc *TaskCtx, replica int) error {
		atomic.AddInt64(&ran, 1)
		tc.Charge(100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := root.Initiate("count", 6, []float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(root); err != nil {
		t.Fatal(err)
	}
	if ran != 6 {
		t.Errorf("ran %d replications, want 6", ran)
	}
	if got := reg.Counter(obs.SPVMTasksInitiated).Load(); got != 6 {
		t.Errorf("tasks_initiated = %d", got)
	}
	// All children terminated: only root remains.
	if rt.LiveTasks() != 1 {
		t.Errorf("LiveTasks = %d", rt.LiveTasks())
	}
	// Flops were charged to simulated PEs.
	if rt.Machine().Makespan() == 0 {
		t.Error("no simulated time elapsed")
	}
}

func TestInitiateUnknownType(t *testing.T) {
	_, root := newTestRuntime(t)
	if _, err := root.Initiate("nope", 1, nil); !errors.Is(err, ErrUnknownTaskType) {
		t.Errorf("want ErrUnknownTaskType, got %v", err)
	}
}

func TestTaskParamsAndReplicaIndex(t *testing.T) {
	rt, root := newTestRuntime(t)
	seen := make([]float64, 4)
	rt.RegisterTaskType("params", 64, 8, func(tc *TaskCtx, replica int) error {
		seen[replica] = tc.Param(0) + float64(replica)
		if tc.Param(99) != 0 {
			return fmt.Errorf("out-of-range param not zero")
		}
		if len(tc.Params()) != 1 {
			return fmt.Errorf("params len %d", len(tc.Params()))
		}
		return nil
	})
	g, _ := root.Initiate("params", 4, []float64{10})
	if err := g.Wait(root); err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != 10+float64(i) {
			t.Errorf("replica %d saw %g", i, v)
		}
	}
}

func TestWaitPropagatesBodyError(t *testing.T) {
	rt, root := newTestRuntime(t)
	boom := errors.New("boom")
	rt.RegisterTaskType("fail", 64, 8, func(tc *TaskCtx, replica int) error {
		if replica == 2 {
			return boom
		}
		return nil
	})
	g, _ := root.Initiate("fail", 4, nil)
	if err := g.Wait(root); !errors.Is(err, boom) {
		t.Errorf("Wait = %v, want boom", err)
	}
}

func TestPauseResumeBetweenTasks(t *testing.T) {
	rt, root := newTestRuntime(t)
	var childID atomic.Int64
	resumedAt := make(chan struct{})
	rt.RegisterTaskType("pauser", 64, 8, func(tc *TaskCtx, replica int) error {
		childID.Store(int64(tc.ID))
		if err := tc.Pause(); err != nil {
			return err
		}
		close(resumedAt)
		return nil
	})
	g, err := root.Initiate("pauser", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the child is actually paused.
	deadline := time.After(5 * time.Second)
	for {
		id := spvm.TaskID(childID.Load())
		if id != 0 {
			if tcx := rt.Task(id); tcx != nil && tcx.Paused() {
				break
			}
		}
		select {
		case <-deadline:
			t.Fatal("child never paused")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	id := spvm.TaskID(childID.Load())
	// The kernel also sees it paused.
	kern := rt.Task(id).kern
	if rec := kern.Task(id); rec.State != spvm.TaskPaused {
		t.Errorf("kernel state = %v", rec.State)
	}
	if err := root.Resume(id); err != nil {
		t.Fatal(err)
	}
	select {
	case <-resumedAt:
	case <-time.After(5 * time.Second):
		t.Fatal("child never resumed")
	}
	if err := g.Wait(root); err != nil {
		t.Fatal(err)
	}
}

func TestResumeUnknownTask(t *testing.T) {
	_, root := newTestRuntime(t)
	if err := root.Resume(spvm.TaskID(424242)); !errors.Is(err, spvm.ErrNoSuchTask) {
		t.Errorf("want ErrNoSuchTask, got %v", err)
	}
}

func TestForallRunsAllIterations(t *testing.T) {
	_, root := newTestRuntime(t)
	var sum int64
	err := root.Forall(10, func(tc *TaskCtx, i int) error {
		atomic.AddInt64(&sum, int64(i))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 45 {
		t.Errorf("sum = %d, want 45", sum)
	}
}

func TestForallRejectsNonPositive(t *testing.T) {
	_, root := newTestRuntime(t)
	if err := root.Forall(0, func(tc *TaskCtx, i int) error { return nil }); err == nil {
		t.Error("Forall(0) accepted")
	}
}

func TestForallNested(t *testing.T) {
	_, root := newTestRuntime(t)
	var count int64
	err := root.Forall(3, func(outer *TaskCtx, i int) error {
		return outer.Forall(4, func(inner *TaskCtx, j int) error {
			atomic.AddInt64(&count, 1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 12 {
		t.Errorf("nested count = %d, want 12", count)
	}
}

func TestPardoRunsEachStatement(t *testing.T) {
	_, root := newTestRuntime(t)
	var a, b, c atomic.Int64
	err := root.Pardo(
		func(tc *TaskCtx) error { a.Store(1); return nil },
		func(tc *TaskCtx) error { b.Store(2); return nil },
		func(tc *TaskCtx) error { c.Store(3); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Error("pardo statements did not all run")
	}
	if err := root.Pardo(); err != nil {
		t.Errorf("empty Pardo: %v", err)
	}
}

func TestBroadcastReachesAllTargets(t *testing.T) {
	rt, root := newTestRuntime(t)
	const n = 5
	got := make([][]float64, n)
	started := make(chan *TaskCtx, n)
	proceed := make(chan struct{})
	rt.RegisterTaskType("recv", 64, 8, func(tc *TaskCtx, replica int) error {
		started <- tc
		<-proceed
		got[replica] = tc.Recv()
		return nil
	})
	g, err := root.Initiate("recv", n, nil)
	if err != nil {
		t.Fatal(err)
	}
	var targets []*TaskCtx
	for i := 0; i < n; i++ {
		targets = append(targets, <-started)
	}
	payload := []float64{3.14, 2.71}
	if err := root.Broadcast(payload, targets); err != nil {
		t.Fatal(err)
	}
	close(proceed)
	if err := g.Wait(root); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if len(v) != 2 || v[0] != 3.14 || v[1] != 2.71 {
			t.Errorf("target %d got %v", i, v)
		}
	}
	// Broadcast payloads are independent copies.
	got[0][0] = 0
	if got[1][0] != 3.14 {
		t.Error("broadcast shares payload storage")
	}
}

func TestChargeAdvancesPEAndMetrics(t *testing.T) {
	_, root, reg := newCountedRuntime(t)
	before := root.pe.Clock()
	root.Charge(50)
	if root.pe.Clock() != before+50*CyclesPerFlop {
		t.Errorf("PE clock = %d", root.pe.Clock())
	}
	if got := reg.Counter(obs.NAVMFlops).Load(); got != 50 {
		t.Errorf("NAVM flops = %d", got)
	}
	root.Charge(0)  // no-op
	root.Charge(-5) // no-op
	if got := reg.Counter(obs.NAVMFlops).Load(); got != 50 {
		t.Errorf("non-positive charge changed metrics: %d", got)
	}
}

func TestManyTaskInitiationsScale(t *testing.T) {
	rt, root, reg := newCountedRuntime(t)
	rt.RegisterTaskType("tiny", 16, 2, func(tc *TaskCtx, replica int) error { return nil })
	g, err := root.Initiate("tiny", 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(root); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.SPVMTasksInitiated).Load(); got != 500 {
		t.Errorf("tasks_initiated = %d", got)
	}
	// All activation records were freed on terminate.
	for _, k := range rt.Kernels() {
		if k.Heap.Allocated() != 0 {
			t.Errorf("cluster %d heap leaks %d words", k.ClusterID, k.Heap.Allocated())
		}
	}
}
