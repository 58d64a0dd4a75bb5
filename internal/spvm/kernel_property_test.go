package spvm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickKernelLifecycleInvariants drives a kernel with long random
// sequences of valid operations and checks the global invariants after
// every step:
//
//   - the heap's block table stays consistent (CheckInvariants),
//   - heap words allocated == sum of live activation records' LocalWords,
//   - every ready task is live and in the Ready state,
//   - every live record is in the language of the activation grammar,
//   - terminated tasks never reappear.
func TestQuickKernelLifecycleInvariants(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(0, 1<<14, NewIDSource())
		k.LoadCode(&CodeBlock{Name: "w", Words: 64, LocalWords: 16})
		var live []TaskID
		state := map[TaskID]TaskState{}

		check := func() bool {
			if k.Heap.CheckInvariants() != nil {
				return false
			}
			var want int64
			for _, id := range live {
				rec := k.Task(id)
				if rec == nil {
					return false
				}
				want += rec.LocalWords
				if state[id] != rec.State || len(activationGrammar.Validate(rec.ToHGraph())) > 0 {
					return false
				}
			}
			return k.Heap.Allocated() == want
		}

		for _, op := range opsRaw {
			switch op % 4 {
			case 0: // initiate 1-3 replications
				n := int64(op%3) + 1
				ids, err := k.Handle(&Message{Type: MsgInitiate, TaskType: "w", Replications: n,
					Params: make([]float64, op%4)})
				if err != nil {
					return false
				}
				for _, id := range ids {
					live = append(live, id)
					state[id] = TaskReady
				}
			case 1: // start a ready task
				if rec, ok := k.StartNext(); ok {
					state[rec.Task] = TaskRunning
				}
			case 2: // start a random task: only a ready one starts
				if len(live) == 0 {
					continue
				}
				id := live[rng.Intn(len(live))]
				rec := k.Start(id)
				if (rec != nil) != (state[id] == TaskReady) {
					return false
				}
				if rec != nil {
					state[id] = TaskRunning
				}
			case 3: // terminate a task
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				id := live[i]
				if _, err := k.Handle(&Message{Type: MsgTerminate, Task: id}); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				delete(state, id)
				if k.Task(id) != nil {
					return false
				}
			}
			if !check() {
				return false
			}
		}
		// Drain: terminate everything, heap must return to empty.
		for _, id := range live {
			if _, err := k.Handle(&Message{Type: MsgTerminate, Task: id}); err != nil {
				return false
			}
		}
		return k.Heap.Allocated() == 0 && k.Heap.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickEncodedLifecycle round-trips every control message through the
// wire format before handling, exercising the full format-send-decode-
// execute path under random sequences.
func TestQuickEncodedLifecycle(t *testing.T) {
	f := func(opsRaw []uint8) bool {
		k := NewKernel(0, 1<<14, NewIDSource())
		k.LoadCode(&CodeBlock{Name: "w", LocalWords: 8})
		var live []TaskID
		for _, op := range opsRaw {
			var m *Message
			switch op % 3 {
			case 0:
				m = &Message{Type: MsgInitiate, TaskType: "w", Replications: 1}
			case 1:
				m = &Message{Type: MsgLoadCode, CodeName: "w", LocalWords: 8}
			case 2:
				if len(live) == 0 {
					continue
				}
				i := int(op) % len(live)
				m = &Message{Type: MsgTerminate, Task: live[i]}
			}
			enc, err := m.Encode()
			if err != nil {
				return false
			}
			ids, err := k.HandleEncoded(enc)
			switch m.Type {
			case MsgInitiate:
				if err != nil {
					return false
				}
				live = append(live, ids...)
			case MsgLoadCode:
				if err != nil {
					return false
				}
			case MsgTerminate:
				if err == nil {
					for i, id := range live {
						if id == m.Task {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			}
			if k.Heap.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
