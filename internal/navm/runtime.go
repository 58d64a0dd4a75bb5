// Package navm implements the FEM-2 numerical analyst's virtual machine:
// the high-level parallel programming layer offering tasks
// (programmer-defined parallel procedures), windows on arrays for remote
// access to non-local data, broadcast, forall/pardo parallel control,
// remote procedure call located by window, and parallel linear algebra
// operations.
//
// The layer is implemented on the system programmer's VM (spvm): every
// task control operation formats and sends one of the seven SPVM messages,
// which a cluster kernel decodes and executes; tasks then run as
// goroutines bound to simulated PEs of the hardware layer (arch), so the
// numerical results are real while processing, storage, and communication
// costs accrue on the simulated machine exactly as the paper's
// evaluation-by-simulation calls for.
package navm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/spvm"
)

// CyclesPerFlop converts floating point work into simulated PE cycles
// (an early-1980s microprocessor spent on the order of ten cycles per
// floating point operation).
const CyclesPerFlop = 10

// ErrUnknownTaskType is returned when initiating a type that was never
// registered.
var ErrUnknownTaskType = errors.New("navm: unknown task type")

// ErrNotOwner is returned when a task violates the data control rule
// "all data owned by a single task" by writing another task's array
// without a window.
var ErrNotOwner = errors.New("navm: task does not own array")

// TaskFunc is the body of a programmer-defined parallel procedure.  The
// replica index runs 0..K-1 within one initiation.
type TaskFunc func(tc *TaskCtx, replica int) error

// Runtime is one NAVM instance bound to a simulated machine.  It owns the
// per-cluster SPVM kernels, the task registry, and the distributed array
// directory.
type Runtime struct {
	machine *arch.Machine
	kernels []*spvm.Kernel
	ids     *spvm.IDSource

	ctr counters

	mu           sync.Mutex
	types        map[string]TaskFunc
	tasks        map[spvm.TaskID]*TaskCtx
	arrays       map[string]*Array
	procs        map[string]ProcFunc
	forallBodies map[int64]TaskFunc
	nextForall   int64
}

// NewRuntime builds a runtime over the machine, creating one kernel per
// cluster with a heap sized to the cluster's shared memory.
func NewRuntime(m *arch.Machine) *Runtime {
	rt := &Runtime{
		machine: m,
		ids:     spvm.NewIDSource(),
		types:   map[string]TaskFunc{},
		tasks:   map[spvm.TaskID]*TaskCtx{},
		arrays:  map[string]*Array{},
	}
	for _, c := range m.Clusters() {
		k := spvm.NewKernel(c.ID, m.Config().SharedMemoryWords, rt.ids)
		rt.kernels = append(rt.kernels, k)
	}
	rt.registerInternalTypes()
	return rt
}

// counters are the runtime's navm.* counters, resolved once by
// AttachInstrumentation; nil until then (no-op sinks).
type counters struct {
	ops, flops, msgs, msgWords, local, remote, wordsAlloc, wordsFreed *obs.Counter
}

// message counts one message carrying words words.
func (c *counters) message(words int64) {
	c.msgs.Inc()
	c.msgWords.Add(words)
}

// AttachInstrumentation points the counters of the runtime, its kernels
// and the machine at reg, which may be nil.
func (rt *Runtime) AttachInstrumentation(reg *obs.Registry) {
	rt.ctr = counters{
		ops: reg.Counter(obs.NAVMOps), flops: reg.Counter(obs.NAVMFlops),
		msgs: reg.Counter(obs.NAVMMsgs), msgWords: reg.Counter(obs.NAVMMsgWords),
		local: reg.Counter(obs.NAVMLocalAccesses), remote: reg.Counter(obs.NAVMRemoteAccesses),
		wordsAlloc: reg.Counter(obs.NAVMWordsAlloc), wordsFreed: reg.Counter(obs.NAVMWordsFreed),
	}
	rt.machine.AttachInstrumentation(reg)
	for _, k := range rt.kernels {
		k.AttachInstrumentation(reg)
	}
}

// Machine returns the underlying simulated hardware.
func (rt *Runtime) Machine() *arch.Machine { return rt.machine }

// Kernel returns the SPVM kernel of cluster i.
func (rt *Runtime) Kernel(i int) *spvm.Kernel { return rt.kernels[i] }

// Kernels returns all cluster kernels.
func (rt *Runtime) Kernels() []*spvm.Kernel { return rt.kernels }

// RegisterTaskType installs a parallel procedure under a name and loads
// its code block into every cluster kernel (a load-code message per
// cluster), making the type initiable machine-wide.
func (rt *Runtime) RegisterTaskType(name string, codeWords, localWords int64, fn TaskFunc) error {
	rt.mu.Lock()
	rt.types[name] = fn
	rt.mu.Unlock()
	msg := &spvm.Message{Type: spvm.MsgLoadCode, CodeName: name, CodeWords: codeWords, LocalWords: localWords}
	for _, k := range rt.kernels {
		if _, err := k.Handle(msg); err != nil {
			return fmt.Errorf("navm: load code %q on cluster %d: %w", name, k.ClusterID, err)
		}
	}
	rt.ctr.ops.Inc()
	return nil
}

// taskFunc looks up a registered type.
func (rt *Runtime) taskFunc(name string) TaskFunc {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.types[name]
}

// TaskCtx is the numerical analyst's handle on one running task: its
// identity, its PE binding, its parameters, and the VM operations.
type TaskCtx struct {
	// ID is the SPVM task id.
	ID spvm.TaskID
	// Type is the registered task type name ("<root>" for drivers).
	Type string
	// Parent is the initiating task.
	Parent spvm.TaskID
	// Replica is this task's index within its initiation group.
	Replica int

	rt     *Runtime
	pe     *arch.PE
	kern   *spvm.Kernel
	params []float64

	mu      sync.Mutex
	paused  bool
	resume  chan struct{}
	done    chan struct{}
	err     error
	results []float64
	mailbox chan []float64
}

// PE returns the processing element the task is bound to.
func (tc *TaskCtx) PE() *arch.PE { return tc.pe }

// Runtime returns the owning runtime.
func (tc *TaskCtx) Runtime() *Runtime { return tc.rt }

// Params returns the task's initiation parameters.
func (tc *TaskCtx) Params() []float64 { return tc.params }

// Param returns parameter i, or 0 when absent.
func (tc *TaskCtx) Param(i int) float64 {
	if i < 0 || i >= len(tc.params) {
		return 0
	}
	return tc.params[i]
}

// Charge accounts flops of numerical work: NAVM flop counters plus
// simulated cycles on the task's PE.
func (tc *TaskCtx) Charge(flops int64) {
	if flops <= 0 {
		return
	}
	tc.rt.ctr.flops.Add(flops)
	tc.rt.machine.Compute(tc.pe.ID, flops*CyclesPerFlop)
}

// NewRootTask creates a driver task bound to a chosen worker PE.  Root
// tasks are registered with their cluster kernel but own no kernel heap
// storage; they model the AUVM-level program driving the computation.
func (rt *Runtime) NewRootTask() (*TaskCtx, error) {
	pe, err := rt.machine.PlaceWorker()
	if err != nil {
		return nil, err
	}
	id := rt.ids.Next()
	kern := rt.kernels[pe.Cluster]
	kern.RegisterRoot(id)
	tc := &TaskCtx{
		ID: id, Type: "<root>", Parent: spvm.NoTask,
		rt: rt, pe: pe, kern: kern,
		resume: make(chan struct{}, 1), done: make(chan struct{}),
	}
	rt.mu.Lock()
	rt.tasks[id] = tc
	rt.mu.Unlock()
	return tc, nil
}

// TaskGroup is a handle on a set of initiated task replications.
type TaskGroup struct {
	IDs   []spvm.TaskID
	ctxs  []*TaskCtx
	group *sync.WaitGroup
}

// Initiate performs the NAVM "initiate a task" operation: it formats an
// initiate-K-replications message, sends it through the machine to a
// destination cluster's kernel, and binds each created task to a placed
// worker PE where its registered body runs on its own goroutine.
func (tc *TaskCtx) Initiate(taskType string, k int, params []float64) (*TaskGroup, error) {
	rt := tc.rt
	fn := rt.taskFunc(taskType)
	if fn == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTaskType, taskType)
	}
	msg := &spvm.Message{
		Type: spvm.MsgInitiate, TaskType: taskType,
		Replications: int64(k), Parent: tc.ID, Params: params,
	}
	// Route the initiate message to the least-loaded cluster the
	// round-robin placement policy picks, as the hardware would.
	destPE, err := rt.machine.PlaceWorker()
	if err != nil {
		return nil, err
	}
	dest := destPE.Cluster
	if _, _, err := rt.machine.Send(tc.pe.ID, dest, msg.Words(), tc.pe.Clock(), rt.machine.Config().KernelDecodeCycles); err != nil {
		return nil, err
	}
	rt.ctr.message(msg.Words())
	kern := rt.kernels[dest]
	ids, err := kern.Handle(msg)
	if err != nil {
		return nil, err
	}
	g := &TaskGroup{IDs: ids, group: &sync.WaitGroup{}}
	for i, id := range ids {
		pe, perr := rt.machine.PlaceWorker()
		if perr != nil {
			return nil, perr
		}
		child := &TaskCtx{
			ID: id, Type: taskType, Parent: tc.ID, Replica: i,
			rt: rt, pe: pe, kern: kern,
			params: append([]float64(nil), params...),
			resume: make(chan struct{}, 1), done: make(chan struct{}),
		}
		rt.mu.Lock()
		rt.tasks[id] = child
		rt.mu.Unlock()
		g.ctxs = append(g.ctxs, child)
		g.group.Add(1)
		go func(child *TaskCtx, i int) {
			defer g.group.Done()
			defer close(child.done)
			// The kernel's ready->running transition.
			if rec := kern.Task(child.ID); rec != nil {
				kern.Ready.Remove(child.ID)
				rec.State = spvm.TaskRunning
			}
			child.err = fn(child, i)
			child.terminate()
		}(child, i)
	}
	return g, nil
}

// terminate sends the "terminate and notify parent" message for a
// finished task.
func (tc *TaskCtx) terminate() {
	msg := &spvm.Message{Type: spvm.MsgTerminate, Task: tc.ID, Parent: tc.Parent}
	tc.kern.Handle(msg)
	tc.rt.ctr.message(msg.Words())
	tc.rt.mu.Lock()
	delete(tc.rt.tasks, tc.ID)
	tc.rt.mu.Unlock()
}

// Wait blocks until every task in the group has terminated and returns
// the first error any body reported.  The waiting task's PE synchronizes
// to the completion time of the slowest child (a join is a barrier).
func (g *TaskGroup) Wait(tc *TaskCtx) error {
	g.group.Wait()
	var firstErr error
	peIDs := []int{tc.pe.ID}
	for _, c := range g.ctxs {
		if c.err != nil && firstErr == nil {
			firstErr = c.err
		}
		peIDs = append(peIDs, c.pe.ID)
	}
	tc.rt.machine.Barrier(peIDs)
	return firstErr
}

// Pause performs "pause and notify parent": the task enters the paused
// state and its goroutine blocks until some other task resumes it.  Local
// data is retained across the pause.
func (tc *TaskCtx) Pause() error {
	msg := &spvm.Message{Type: spvm.MsgPause, Task: tc.ID, Parent: tc.Parent}
	if _, err := tc.kern.Handle(msg); err != nil {
		return err
	}
	tc.rt.ctr.msgs.Inc()
	tc.mu.Lock()
	tc.paused = true
	tc.mu.Unlock()
	<-tc.resume
	tc.mu.Lock()
	tc.paused = false
	tc.mu.Unlock()
	// Back on the ready queue -> running again.
	if rec := tc.kern.Task(tc.ID); rec != nil {
		tc.kern.Ready.Remove(tc.ID)
		rec.State = spvm.TaskRunning
	}
	return nil
}

// Paused reports whether the task is currently paused.
func (tc *TaskCtx) Paused() bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.paused
}

// Resume performs "resume a child task" on the named task.
func (tc *TaskCtx) Resume(child spvm.TaskID) error {
	tc.rt.mu.Lock()
	target := tc.rt.tasks[child]
	tc.rt.mu.Unlock()
	if target == nil {
		return fmt.Errorf("%w: resume %d", spvm.ErrNoSuchTask, child)
	}
	msg := &spvm.Message{Type: spvm.MsgResume, Child: child}
	if _, err := target.kern.Handle(msg); err != nil {
		return err
	}
	tc.rt.ctr.msgs.Inc()
	// The resumed task observes the resumer's progress.
	target.pe.Sync(tc.pe.Clock())
	select {
	case target.resume <- struct{}{}:
	default:
	}
	return nil
}

// Task returns the live TaskCtx with the given id, or nil.
func (rt *Runtime) Task(id spvm.TaskID) *TaskCtx {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.tasks[id]
}

// LiveTasks returns the number of live tasks.
func (rt *Runtime) LiveTasks() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.tasks)
}
