package spvm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrNoSuchTask is returned for control messages naming unknown tasks.
var ErrNoSuchTask = errors.New("spvm: no such task")

// ErrNoSuchCode is returned when an initiate message names a code block
// the kernel has not loaded.
var ErrNoSuchCode = errors.New("spvm: no such code block")

// IDSource hands out machine-unique task IDs to all kernels.
type IDSource struct{ next int64 }

// NewIDSource returns a source starting at 1 (0 is reserved for root
// drivers, NoTask is -1).
func NewIDSource() *IDSource { return &IDSource{next: 0} }

// Next returns a fresh TaskID.
func (s *IDSource) Next() TaskID { return TaskID(atomic.AddInt64(&s.next, 1)) }

// Kernel is the operating system kernel run by one PE in each cluster: it
// fields incoming messages, decodes and executes them, and maintains the
// cluster's task table, loaded code blocks and heap.  The task table is
// the one record of a task: a ready task is a record in state TaskReady,
// so the ready queue is the table's ready records in id order (ids
// ascend, so the lowest is the oldest).
type Kernel struct {
	// ClusterID is the cluster this kernel serves.
	ClusterID int
	// Heap is the cluster's variable-size-block storage manager.  It
	// keeps a lock of its own: its statistics are read outside the
	// kernel's.
	Heap *Heap

	ids *IDSource
	// The spvm.* counters, resolved by AttachInstrumentation; nil until
	// then (no-op sinks).
	ops, tasksInitiated, wordsAlloc, wordsFreed *obs.Counter

	mu    sync.Mutex
	tasks map[TaskID]*ActivationRecord
	// codes holds the loaded code/constants blocks by name; a later load
	// of a name replaces the earlier.
	codes    map[string]*CodeBlock
	decoded  int64
	handled  map[MsgType]int64
	rejected int64
}

// NewKernel builds a kernel for a cluster with the given heap size.
func NewKernel(clusterID int, heapWords int64, ids *IDSource) *Kernel {
	return &Kernel{
		ClusterID: clusterID,
		Heap:      NewHeap(heapWords),
		ids:       ids,
		tasks:     map[TaskID]*ActivationRecord{},
		codes:     map[string]*CodeBlock{},
		handled:   map[MsgType]int64{},
	}
}

// AttachInstrumentation points the kernel's counters at reg, which may be
// nil.
func (k *Kernel) AttachInstrumentation(reg *obs.Registry) {
	k.ops, k.tasksInitiated = reg.Counter(obs.SPVMOps), reg.Counter(obs.SPVMTasksInitiated)
	k.wordsAlloc, k.wordsFreed = reg.Counter(obs.SPVMWordsAlloc), reg.Counter(obs.SPVMWordsFreed)
}

// Task returns the activation record for id, or nil.
func (k *Kernel) Task(id TaskID) *ActivationRecord {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.tasks[id]
}

// TaskIDs returns the IDs of all live tasks, sorted; a terminated task's
// record is deleted.
func (k *Kernel) TaskIDs() []TaskID {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]TaskID, 0, len(k.tasks))
	for id := range k.tasks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Start moves a ready task to running, as when a PE takes it up, and
// returns its record; it returns nil when id is no ready task of this
// kernel.  The state changes under the kernel's lock, as every other
// life-cycle transition does, so TaskIDs may run beside it.
func (k *Kernel) Start(id TaskID) *ActivationRecord {
	k.mu.Lock()
	defer k.mu.Unlock()
	rec := k.tasks[id]
	if rec == nil || rec.State != TaskReady {
		return nil
	}
	rec.State = TaskRunning
	return rec
}

// Decoded returns how many messages the kernel has decoded.
func (k *Kernel) Decoded() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.decoded
}

// Handle executes one message.  For an initiate message it returns the
// IDs of the tasks created.  Errors leave kernel state unchanged except
// for the rejection counter.
func (k *Kernel) Handle(m *Message) (created []TaskID, err error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.decoded++
	defer func() {
		if err != nil {
			k.rejected++
		} else {
			k.handled[m.Type]++
		}
	}()
	k.ops.Inc()

	switch m.Type {
	case MsgInitiate:
		if m.Replications < 1 {
			return nil, fmt.Errorf("spvm: initiate with %d replications", m.Replications)
		}
		code := k.codes[m.TaskType]
		if code == nil {
			return nil, fmt.Errorf("%w: %q", ErrNoSuchCode, m.TaskType)
		}
		// "find code for task, allocate an activation record, copy
		// parameters from the message queue into the activation
		// record, enter task in ready queue" — once per replication.
		for i := int64(0); i < m.Replications; i++ {
			words := code.LocalWords + int64(len(m.Params))
			addr, aerr := k.Heap.Alloc(words)
			if aerr != nil {
				// Roll back the records created so far.
				for _, id := range created {
					rec := k.tasks[id]
					k.Heap.Free(rec.LocalAddr)
					delete(k.tasks, id)
				}
				return nil, fmt.Errorf("spvm: initiate replication %d: %w", i, aerr)
			}
			params := make([]float64, len(m.Params))
			copy(params, m.Params)
			id := k.ids.Next()
			rec := &ActivationRecord{
				Task: id, Parent: m.Parent, CodeBlock: code.Name,
				Params: params, LocalAddr: addr, LocalWords: words,
				State: TaskReady,
			}
			k.tasks[id] = rec
			created = append(created, id)
			k.tasksInitiated.Inc()
			k.wordsAlloc.Add(words)
		}
		return created, nil

	case MsgTerminate:
		rec := k.tasks[m.Task]
		if rec == nil {
			return nil, fmt.Errorf("%w: terminate %d", ErrNoSuchTask, m.Task)
		}
		if rec.LocalAddr >= 0 {
			if err := k.Heap.Free(rec.LocalAddr); err != nil {
				return nil, err
			}
			k.wordsFreed.Add(rec.LocalWords)
		}
		delete(k.tasks, m.Task)
		return nil, nil

	case MsgLoadCode:
		if m.CodeWords < 0 || m.LocalWords < 0 {
			return nil, fmt.Errorf("spvm: load-code with negative sizes")
		}
		k.codes[m.CodeName] = &CodeBlock{Name: m.CodeName, Words: m.CodeWords, LocalWords: m.LocalWords}
		k.wordsAlloc.Add(m.CodeWords)
		return nil, nil

	default:
		return nil, fmt.Errorf("%w: type %d", ErrBadMessage, m.Type)
	}
}

// RegisterRoot installs an externally-managed task (an AUVM/NAVM driver
// that was not created through an initiate message) so that control
// messages can reference it.  The root owns no kernel heap storage.
func (k *Kernel) RegisterRoot(id TaskID) *ActivationRecord {
	k.mu.Lock()
	defer k.mu.Unlock()
	rec := &ActivationRecord{Task: id, Parent: NoTask, CodeBlock: "<root>", State: TaskRunning, LocalAddr: -1}
	k.tasks[id] = rec
	return rec
}
