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

// liveTasks returns the tasks the runtime's kernels hold, the one task
// registry, in kernel order.
func liveTasks(rt *Runtime) []spvm.TaskID {
	var ids []spvm.TaskID
	for _, k := range rt.Kernels() {
		ids = append(ids, k.TaskIDs()...)
	}
	return ids
}

func TestRootTaskRegistered(t *testing.T) {
	rt, root := newTestRuntime(t)
	if root.ID <= 0 {
		t.Errorf("root id = %d", root.ID)
	}
	rec := rt.Kernels()[root.pe.Cluster].Task(root.ID)
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
	// All children terminated: only root remains in the kernels' tables.
	if live := liveTasks(rt); len(live) != 1 || live[0] != root.ID {
		t.Errorf("live tasks = %v, want only root %d", live, root.ID)
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
		// The initiate message's parameters land in the kernel's
		// activation record.
		rec := tc.kern.Task(tc.ID)
		if rec == nil || len(rec.Params) != 1 {
			return fmt.Errorf("activation record %+v", rec)
		}
		seen[replica] = rec.Params[0] + float64(replica)
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

// TestReplicasSpreadOverWorkers runs a 16-replica group on 2 clusters of
// 3 workers each.  Every replica must start on the least-loaded live
// worker of its cluster, as the clocks stand once the replicas before it
// have charged their work, so the group spreads over the workers instead
// of piling onto the worker each cluster offered first.
func TestReplicasSpreadOverWorkers(t *testing.T) {
	rt, root := newTestRuntime(t)
	workers := rt.Machine().LiveWorkers()
	perPE := map[int]int{}
	rt.RegisterTaskType("spread", 16, 2, func(tc *TaskCtx, replica int) error {
		pe := tc.PE()
		for _, w := range workers {
			if w.Cluster == pe.Cluster && w.Clock() < pe.Clock() {
				t.Errorf("replica %d started on PE %d at clock %d while PE %d stood at %d",
					replica, pe.ID, pe.Clock(), w.ID, w.Clock())
			}
		}
		perPE[pe.ID]++
		tc.Charge(100)
		return nil
	})
	g, err := root.Initiate("spread", 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(root); err != nil {
		t.Fatal(err)
	}
	for pe, n := range perPE {
		if n > 3 {
			t.Errorf("PE %d ran %d of 16 replicas (%v)", pe, n, perPE)
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

// TestTaskStartsUnderTheKernelLock polls the kernels' task tables while
// an initiate's children start and run.  Kernel.TaskIDs reads each
// record's state under its kernel's lock, so a child's ready->running
// transition made outside that lock is a data race the race detector
// reports here.
func TestTaskStartsUnderTheKernelLock(t *testing.T) {
	rt, root := newTestRuntime(t)
	rt.RegisterTaskType("nap", 16, 2, func(tc *TaskCtx, replica int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	stop, polls := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				polls <- n
				return
			default:
			}
			liveTasks(rt)
			n++
		}
	}()
	g, err := root.Initiate("nap", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(root); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if n := <-polls; n == 0 {
		t.Error("the task tables were never polled")
	}
	if live := liveTasks(rt); len(live) != 1 || live[0] != root.ID {
		t.Errorf("live tasks = %v, want only root %d", live, root.ID)
	}
}

func TestManyTaskInitiationsScale(t *testing.T) {
	rt, root, reg := newCountedRuntime(t)
	rt.RegisterTaskType("tiny", 16, 2, func(tc *TaskCtx, replica int) error { return nil })
	allocated, freed := reg.Counter(obs.SPVMWordsAlloc), reg.Counter(obs.SPVMWordsFreed)
	codeWords := allocated.Load()
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
	if records := allocated.Load() - codeWords; records != 500*2 || freed.Load() != records {
		t.Errorf("activation records took %d heap words and freed %d, want 1000 each", records, freed.Load())
	}
}
