package spvm

import (
	"fmt"

	"repro/internal/hgraph"
)

// CodeBlock is an SPVM code/constants block, registered with a kernel via
// a load-code message.  Words is the block's size for storage accounting;
// LocalWords is the local-data size an activation of this code requires.
type CodeBlock struct {
	Name       string
	Words      int64
	LocalWords int64
}

// TaskState is the SPVM view of a task's life cycle: an initiate message
// makes a task ready, Kernel.Start runs it, a terminate message ends it
// and deletes its record.
type TaskState int

// Task states.
const (
	TaskReady TaskState = iota
	TaskRunning
)

// String names the state using the grammar's vocabulary.
func (s TaskState) String() string {
	switch s {
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// ActivationRecord is the run-time representation of one task: its code
// block, parameters copied from the initiating message, heap-allocated
// local storage, and life-cycle state.  The record persists until
// terminate.
type ActivationRecord struct {
	Task      TaskID
	Parent    TaskID
	CodeBlock string
	// Params are copied out of the initiate message's queue entry.
	Params []float64
	// LocalAddr/LocalWords locate the task's local data in the kernel
	// heap.
	LocalAddr  int64
	LocalWords int64
	State      TaskState
}

// ToHGraph builds the formal H-graph model of the record, in the language
// of hgraph.ActivationRecordGrammar.  This package's tests validate every
// record a kernel creates, navm's validate a task's own record from inside
// its body, and experiment E11 counts them.
func (r *ActivationRecord) ToHGraph() *hgraph.Graph {
	g := hgraph.NewGraph("activation")
	root := g.Add("activation")
	root.Arc("task", g.AddAtom("id", hgraph.Int(int64(r.Task))))
	root.Arc("parent", g.AddAtom("p", hgraph.Int(int64(r.Parent))))
	root.Arc("code-block", g.AddAtom("cb", hgraph.Str(r.CodeBlock)))
	root.Arc("params", floatList(g, "params", r.Params))
	root.Arc("local-words", g.AddAtom("lw", hgraph.Int(r.LocalWords)))
	root.Arc("state", g.AddAtom("s", hgraph.Str(r.State.String())))
	return g
}
