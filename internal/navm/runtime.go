// Package navm implements the FEM-2 numerical analyst's virtual machine:
// the high-level parallel programming layer offering tasks
// (programmer-defined parallel procedures) with initiate and wait, arrays
// owned by a task, row windows on them for reading non-local data, and
// one distributed solve (Runtime.Solve) of each iterative method of
// linalg's method table (CG, Jacobi, multi-colour SOR).  It runs the
// method's kernel on one row block per worker with a linalg.CostHook
// that charges the simulated machine: the halo exchange before each
// product, each block's work on its worker's PE, each barrier.  This
// package only picks the workers, spawns their solver tasks and reports
// the cost.  The paper's layer specification (core.FEM2Layers) also names
// pause/resume, broadcast, forall, pardo and remote procedure call; no
// program here needs them, so they are specified by the paper and not
// reproduced, here or in the SPVM.
//
// The layer is implemented on the system programmer's VM (spvm): task
// initiation and termination each format and send an SPVM message, which
// a cluster kernel executes; the kernels' task tables are the one task
// registry.  Tasks then run bound to simulated PEs of the hardware layer
// (arch), so the numerical results are real while processing, storage,
// and communication costs accrue on the simulated machine exactly as the
// paper's evaluation-by-simulation calls for.
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

// TaskFunc is the body of a programmer-defined parallel procedure.  The
// replica index runs 0..K-1 within one initiation.
type TaskFunc func(tc *TaskCtx, replica int) error

// Runtime is one NAVM instance bound to a simulated machine.  It owns the
// per-cluster SPVM kernels, which hold the task registry, and the
// registered task types.
type Runtime struct {
	machine *arch.Machine
	kernels []*spvm.Kernel
	ids     *spvm.IDSource

	ctr counters

	mu    sync.Mutex
	types map[string]TaskFunc
}

// NewRuntime builds a runtime over the machine, creating one kernel per
// cluster with a heap sized to the cluster's shared memory and the code
// block of the distributed solvers' tasks loaded.
func NewRuntime(m *arch.Machine) *Runtime {
	rt := &Runtime{
		machine: m,
		ids:     spvm.NewIDSource(),
		types:   map[string]TaskFunc{},
	}
	for _, c := range m.Clusters() {
		k := spvm.NewKernel(c.ID, m.Config().SharedMemoryWords, rt.ids)
		k.Handle(&spvm.Message{Type: spvm.MsgLoadCode, CodeName: solverType, CodeWords: 256, LocalWords: 32})
		rt.kernels = append(rt.kernels, k)
	}
	return rt
}

// counters are the runtime's navm.* counters, resolved once by
// AttachInstrumentation; nil until then (no-op sinks).
type counters struct {
	ops, flops, msgs, msgWords, local, remote, wordsAlloc *obs.Counter
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
		wordsAlloc: reg.Counter(obs.NAVMWordsAlloc),
	}
	rt.machine.AttachInstrumentation(reg)
	for _, k := range rt.kernels {
		k.AttachInstrumentation(reg)
	}
}

// Machine returns the underlying simulated hardware.
func (rt *Runtime) Machine() *arch.Machine { return rt.machine }

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
// identity, its PE binding, and the VM operations.
type TaskCtx struct {
	// ID is the SPVM task id.
	ID spvm.TaskID
	// Type is the registered task type name ("<root>" for drivers).
	Type string
	// Parent is the initiating task.
	Parent spvm.TaskID
	// Replica is this task's index within its initiation group.
	Replica int

	rt   *Runtime
	pe   *arch.PE
	kern *spvm.Kernel
	err  error
}

// PE returns the processing element the task is bound to.
func (tc *TaskCtx) PE() *arch.PE { return tc.pe }

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
	return &TaskCtx{
		ID: id, Type: "<root>", Parent: spvm.NoTask,
		rt: rt, pe: pe, kern: kern,
	}, nil
}

// TaskGroup is a handle on a set of initiated task replications.
type TaskGroup struct {
	IDs  []spvm.TaskID
	ctxs []*TaskCtx
}

// Initiate performs the NAVM "initiate a task" operation: it formats an
// initiate-K-replications message, sends it through the machine to a
// destination cluster's kernel, and runs the registered body of each
// created task on the initiator's goroutine, one after another in
// replica order.  Each replica is placed on a worker PE as it starts,
// after the previous one has charged its own, so a group spreads over
// the workers the way its work loads them: the parallelism the machine
// models lives in the PE clocks, and a group's simulated cost is a
// function of its work alone.
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
	g := &TaskGroup{IDs: ids}
	for i, id := range ids {
		pe, perr := rt.machine.PlaceWorker()
		if perr != nil {
			return nil, perr
		}
		child := &TaskCtx{
			ID: id, Type: taskType, Parent: tc.ID, Replica: i,
			rt: rt, pe: pe, kern: kern,
		}
		g.ctxs = append(g.ctxs, child)
		kern.Start(id)
		child.err = fn(child, i)
		child.terminate()
	}
	return g, nil
}

// terminate sends the "terminate and notify parent" message for a
// finished task.
func (tc *TaskCtx) terminate() {
	msg := &spvm.Message{Type: spvm.MsgTerminate, Task: tc.ID, Parent: tc.Parent}
	tc.kern.Handle(msg)
	tc.rt.ctr.message(msg.Words())
}

// Wait returns the first error any body reported (all have run once
// Initiate returns).  The waiting task's PE synchronizes to the
// completion time of the slowest child (a join is a barrier).
func (g *TaskGroup) Wait(tc *TaskCtx) error {
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
