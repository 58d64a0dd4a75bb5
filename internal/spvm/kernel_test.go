package spvm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/hgraph"
	"repro/internal/obs"
)

func newTestKernel() *Kernel {
	k := NewKernel(0, 1<<16, NewIDSource())
	k.AttachInstrumentation(obs.New())
	k.LoadCode(&CodeBlock{Name: "worker", Words: 256, LocalWords: 32})
	return k
}

var activationGrammar = hgraph.ActivationRecordGrammar()

// checkRecords validates the kernel's records of ids against the formal
// grammar of activation records.
func checkRecords(t *testing.T, k *Kernel, ids ...TaskID) {
	t.Helper()
	for _, id := range ids {
		if errs := activationGrammar.Validate(k.Task(id).ToHGraph()); len(errs) > 0 {
			t.Errorf("task %d: live activation record violates formal grammar: %v", id, errs)
		}
	}
}

func TestInitiateCreatesReplications(t *testing.T) {
	k := newTestKernel()
	ids, err := k.Handle(&Message{Type: MsgInitiate, TaskType: "worker", Replications: 4, Parent: 0, Params: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("created %d tasks, want 4", len(ids))
	}
	checkRecords(t, k, ids...)
	if k.ReadyCount() != 4 {
		t.Errorf("ready queue has %d, want 4", k.ReadyCount())
	}
	for _, id := range ids {
		rec := k.Task(id)
		if rec == nil {
			t.Fatalf("no record for %d", id)
		}
		if rec.State != TaskReady || rec.CodeBlock != "worker" || rec.Parent != 0 {
			t.Errorf("record %+v", rec)
		}
		if len(rec.Params) != 2 || rec.Params[0] != 1 {
			t.Errorf("params not copied: %v", rec.Params)
		}
		if rec.LocalWords != 34 { // 32 local + 2 params
			t.Errorf("LocalWords = %d, want 34", rec.LocalWords)
		}
	}
	if got := k.tasksInitiated.Load(); got != 4 {
		t.Errorf("tasks_initiated = %d", got)
	}
	if got := k.Heap.Allocated(); got != 4*34 {
		t.Errorf("heap allocated = %d, want %d", got, 4*34)
	}
}

func TestInitiateParamsAreCopies(t *testing.T) {
	k := newTestKernel()
	params := []float64{7}
	ids, err := k.Handle(&Message{Type: MsgInitiate, TaskType: "worker", Replications: 1, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	params[0] = 99
	if k.Task(ids[0]).Params[0] != 7 {
		t.Error("activation record shares the message's parameter storage")
	}
}

func TestInitiateUnknownCode(t *testing.T) {
	k := newTestKernel()
	_, err := k.Handle(&Message{Type: MsgInitiate, TaskType: "nope", Replications: 1})
	if !errors.Is(err, ErrNoSuchCode) {
		t.Errorf("want ErrNoSuchCode, got %v", err)
	}
	if k.Rejected() != 1 {
		t.Errorf("Rejected = %d", k.Rejected())
	}
}

func TestInitiateZeroReplications(t *testing.T) {
	k := newTestKernel()
	if _, err := k.Handle(&Message{Type: MsgInitiate, TaskType: "worker", Replications: 0}); err == nil {
		t.Error("zero replications accepted")
	}
}

func TestInitiateHeapExhaustionRollsBack(t *testing.T) {
	k := NewKernel(0, 100, NewIDSource())
	k.LoadCode(&CodeBlock{Name: "big", LocalWords: 40})
	_, err := k.Handle(&Message{Type: MsgInitiate, TaskType: "big", Replications: 3})
	if !errors.Is(err, ErrHeapFull) {
		t.Fatalf("want ErrHeapFull, got %v", err)
	}
	if k.Heap.Allocated() != 0 {
		t.Errorf("rollback left %d words allocated", k.Heap.Allocated())
	}
	if k.ReadyCount() != 0 {
		t.Errorf("rollback left %d ready tasks", k.ReadyCount())
	}
	if len(k.TaskIDs()) != 0 {
		t.Errorf("rollback left task records: %v", k.TaskIDs())
	}
}

func TestStartTerminateLifecycle(t *testing.T) {
	k := newTestKernel()
	ids, _ := k.Handle(&Message{Type: MsgInitiate, TaskType: "worker", Replications: 1, Parent: 0})
	id := ids[0]

	// Start it (ready -> running).
	rec, ok := k.StartNext()
	if !ok || rec.Task != id {
		t.Fatalf("StartNext = %v, %v", rec, ok)
	}
	if rec.State != TaskRunning {
		t.Errorf("state = %v", rec.State)
	}
	checkRecords(t, k, id)
	// A running task is not started again.
	if k.Start(id) != nil {
		t.Error("Start of a running task succeeded")
	}

	// Terminate and notify parent: the record and its storage go.
	if _, err := k.Handle(&Message{Type: MsgTerminate, Task: id, Parent: 0}); err != nil {
		t.Fatal(err)
	}
	if k.Task(id) != nil || k.Heap.Allocated() != 0 {
		t.Errorf("terminate left record %v, %d words", k.Task(id), k.Heap.Allocated())
	}
	if k.Start(id) != nil {
		t.Error("Start of a terminated task succeeded")
	}
}

func TestTerminateOfReadyTaskLeavesQueue(t *testing.T) {
	k := newTestKernel()
	ids, _ := k.Handle(&Message{Type: MsgInitiate, TaskType: "worker", Replications: 1})
	if _, err := k.Handle(&Message{Type: MsgTerminate, Task: ids[0]}); err != nil {
		t.Fatal(err)
	}
	if k.ReadyCount() != 0 {
		t.Error("terminated task still in ready queue")
	}
	if _, ok := k.StartNext(); ok {
		t.Error("StartNext returned a terminated task")
	}
}

func TestTerminateFreesStorage(t *testing.T) {
	k := newTestKernel()
	ids, _ := k.Handle(&Message{Type: MsgInitiate, TaskType: "worker", Replications: 2})
	before := k.Heap.Allocated()
	if _, err := k.Handle(&Message{Type: MsgTerminate, Task: ids[0], Parent: 0}); err != nil {
		t.Fatal(err)
	}
	if k.Heap.Allocated() >= before {
		t.Error("terminate did not free the activation record")
	}
	if k.Task(ids[0]) != nil {
		t.Error("terminated task still in table")
	}
	// Double terminate reports unknown task (record was removed).
	if _, err := k.Handle(&Message{Type: MsgTerminate, Task: ids[0]}); !errors.Is(err, ErrNoSuchTask) {
		t.Errorf("double terminate: %v", err)
	}
	// The other task survives.
	if k.Task(ids[1]) == nil {
		t.Error("sibling task lost")
	}
}

func TestControlMessagesOnUnknownTask(t *testing.T) {
	k := newTestKernel()
	m := &Message{Type: MsgTerminate, Task: 77}
	if _, err := k.Handle(m); !errors.Is(err, ErrNoSuchTask) {
		t.Errorf("%s on unknown task: %v", m.Type, err)
	}
}

func TestLoadCodeRegistersBlock(t *testing.T) {
	k := newTestKernel()
	if _, err := k.Handle(&Message{Type: MsgLoadCode, CodeName: "solve", CodeWords: 1024, LocalWords: 64}); err != nil {
		t.Fatal(err)
	}
	cb := k.Code("solve")
	if cb == nil || cb.Words != 1024 || cb.LocalWords != 64 {
		t.Errorf("loaded block %+v", cb)
	}
	if _, err := k.Handle(&Message{Type: MsgLoadCode, CodeName: "bad", CodeWords: -1}); err == nil {
		t.Error("negative code size accepted")
	}
}

// TestLoadCodeReloadReplaces: a second load-code message for a name
// replaces the first block, and the next initiate of that code allocates
// the new block's local words.
func TestLoadCodeReloadReplaces(t *testing.T) {
	k := newTestKernel()
	for _, lw := range []int64{10, 25} {
		if _, err := k.Handle(&Message{Type: MsgLoadCode, CodeName: "a", CodeWords: 50, LocalWords: lw}); err != nil {
			t.Fatal(err)
		}
	}
	if cb := k.Code("a"); cb == nil || cb.LocalWords != 25 {
		t.Fatalf("code block after reload = %+v, want LocalWords 25", cb)
	}
	if k.Code("missing") != nil {
		t.Error("lookup of a block never loaded is non-nil")
	}
	ids, err := k.Handle(&Message{Type: MsgInitiate, TaskType: "a", Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec := k.Task(ids[0]); rec.LocalWords != 25 || k.Heap.Allocated() != 25 {
		t.Errorf("initiate after reload: record %d words, heap %d; want 25 each", rec.LocalWords, k.Heap.Allocated())
	}
}

// TestStartNextStartsTheOldestReadyTask: the ready queue is the task
// table's ready records, oldest first; a terminated task leaves it and a
// started one is not started again.
func TestStartNextStartsTheOldestReadyTask(t *testing.T) {
	k := newTestKernel()
	ids, err := k.Handle(&Message{Type: MsgInitiate, TaskType: "worker", Replications: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Handle(&Message{Type: MsgTerminate, Task: ids[1]}); err != nil {
		t.Fatal(err)
	}
	if n := k.ReadyCount(); n != 2 {
		t.Errorf("ready count = %d, want 2", n)
	}
	for _, want := range []TaskID{ids[0], ids[2]} {
		if rec, ok := k.StartNext(); !ok || rec.Task != want {
			t.Fatalf("StartNext = %v, %v; want task %d", rec, ok, want)
		}
	}
	if rec, ok := k.StartNext(); ok {
		t.Errorf("StartNext with no ready task started %d", rec.Task)
	}
}

func TestHandleEncodedFullPath(t *testing.T) {
	k := newTestKernel()
	b, _ := (&Message{Type: MsgInitiate, TaskType: "worker", Replications: 2}).Encode()
	ids, err := k.HandleEncoded(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Errorf("created %d", len(ids))
	}
	if _, err := k.HandleEncoded([]byte{1, 2, 3}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("garbage accepted: %v", err)
	}
	if k.Rejected() != 1 {
		t.Errorf("Rejected = %d", k.Rejected())
	}
	if k.Decoded() != 1 {
		t.Errorf("Decoded = %d", k.Decoded())
	}
	if k.Handled(MsgInitiate) != 1 {
		t.Errorf("Handled(initiate) = %d", k.Handled(MsgInitiate))
	}
}

func TestTaskIDsSortedAndLive(t *testing.T) {
	k := newTestKernel()
	ids, _ := k.Handle(&Message{Type: MsgInitiate, TaskType: "worker", Replications: 3})
	k.Handle(&Message{Type: MsgTerminate, Task: ids[1]})
	live := k.TaskIDs()
	if len(live) != 2 {
		t.Fatalf("live = %v", live)
	}
	if live[0] > live[1] {
		t.Error("TaskIDs not sorted")
	}
}

func TestStartNextEmptyQueue(t *testing.T) {
	k := newTestKernel()
	if _, ok := k.StartNext(); ok {
		t.Error("StartNext on empty kernel succeeded")
	}
}

func TestIDSourceUniqueAcrossKernelsConcurrently(t *testing.T) {
	ids := NewIDSource()
	k1 := NewKernel(0, 1<<16, ids)
	k2 := NewKernel(1, 1<<16, ids)
	for _, k := range []*Kernel{k1, k2} {
		k.LoadCode(&CodeBlock{Name: "w", LocalWords: 1})
	}
	var wg sync.WaitGroup
	results := make([][]TaskID, 2)
	for i, k := range []*Kernel{k1, k2} {
		wg.Add(1)
		go func(i int, k *Kernel) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				got, err := k.Handle(&Message{Type: MsgInitiate, TaskType: "w", Replications: 1})
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = append(results[i], got...)
			}
		}(i, k)
	}
	wg.Wait()
	seen := map[TaskID]bool{}
	for _, r := range results {
		for _, id := range r {
			if seen[id] {
				t.Fatalf("duplicate task id %d across kernels", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 100 {
		t.Errorf("total ids = %d", len(seen))
	}
}

func TestRootTerminateWithoutHeapStorage(t *testing.T) {
	k := newTestKernel()
	if root := k.RegisterRoot(0); root.State != TaskRunning {
		t.Fatalf("root state = %v", root.State)
	}
	checkRecords(t, k, 0)
	if _, err := k.Handle(&Message{Type: MsgTerminate, Task: 0}); err != nil {
		t.Fatalf("root terminate failed: %v", err)
	}
}
