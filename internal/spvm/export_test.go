package spvm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Size returns the arena size in words.
func (h *Heap) Size() int64 { return h.size }

// Allocated returns the words currently allocated.
func (h *Heap) Allocated() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.allocated
}

// FailedAllocs returns how many allocations could not be satisfied.
func (h *Heap) FailedAllocs() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fails
}

// Ops returns the total allocation and free operation counts.
func (h *Heap) Ops() (allocs, frees int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.allocOps, h.freeOps
}

// LargestFree returns the size of the largest free block.
func (h *Heap) LargestFree() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.largestFreeLocked()
}

// Fragmentation returns 1 - largestFree/totalFree, the standard external
// fragmentation measure (0 when free space is one block or the heap is
// full).
func (h *Heap) Fragmentation() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	free := h.size - h.allocated
	if free == 0 {
		return 0
	}
	return 1 - float64(h.largestFreeLocked())/float64(free)
}

// BlockCount returns the number of blocks in the arena partition
// (diagnostics and invariant tests).
func (h *Heap) BlockCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.blocks)
}

// CheckInvariants verifies the internal consistency of the block table:
// the blocks partition [0,size) exactly, no two adjacent blocks are both
// free (full coalescing), and the allocated total matches the address
// index.  Property tests call it after random workloads.
func (h *Heap) CheckInvariants() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var off, alloc int64
	for i, b := range h.blocks {
		if b.off != off {
			return fmt.Errorf("spvm: heap block %d at %d, expected %d", i, b.off, off)
		}
		if b.size <= 0 {
			return fmt.Errorf("spvm: heap block %d has size %d", i, b.size)
		}
		if i > 0 && b.free && h.blocks[i-1].free {
			return fmt.Errorf("spvm: adjacent free blocks at %d", b.off)
		}
		if !b.free {
			alloc += b.size
			if h.byAddr[b.off] != b.size {
				return fmt.Errorf("spvm: index mismatch at %d: %d vs %d", b.off, h.byAddr[b.off], b.size)
			}
		}
		off += b.size
	}
	if off != h.size {
		return fmt.Errorf("spvm: blocks cover %d of %d words", off, h.size)
	}
	if alloc != h.allocated {
		return fmt.Errorf("spvm: allocated mismatch %d vs %d", alloc, h.allocated)
	}
	return nil
}

// LoadCode registers a code block directly, as a load-code message
// would, without counting a message.
func (k *Kernel) LoadCode(b *CodeBlock) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.codes[b.Name] = b
}

// Code returns the loaded code block of that name, or nil ("find code
// for task").
func (k *Kernel) Code(name string) *CodeBlock {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.codes[name]
}

// ReadyCount returns how many tasks are ready: the ready queue's length.
func (k *Kernel) ReadyCount() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for _, rec := range k.tasks {
		if rec.State == TaskReady {
			n++
		}
	}
	return n
}

// Handled returns the per-type count of successfully executed messages.
func (k *Kernel) Handled(t MsgType) int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.handled[t]
}

// Rejected returns how many messages failed to execute.
func (k *Kernel) Rejected() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.rejected
}

// HandleEncoded decodes a wire-format message and executes it — the full
// "decode and execute message" kernel operation.
func (k *Kernel) HandleEncoded(b []byte) ([]TaskID, error) {
	m, err := Decode(b)
	if err != nil {
		k.mu.Lock()
		k.rejected++
		k.mu.Unlock()
		return nil, err
	}
	return k.Handle(m)
}

// StartNext starts the oldest ready task, the one with the lowest id, as
// Kernel.Start does, and returns its activation record; ok is false when
// no task is ready.
func (k *Kernel) StartNext() (*ActivationRecord, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	var next *ActivationRecord
	for _, rec := range k.tasks {
		if rec.State == TaskReady && (next == nil || rec.Task < next.Task) {
			next = rec
		}
	}
	if next == nil {
		return nil, false
	}
	next.State = TaskRunning
	return next, true
}

func readString(buf *bytes.Reader) (string, error) {
	var n uint32
	if err := binary.Read(buf, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("%w: string length: %v", ErrBadMessage, err)
	}
	if int(n) > buf.Len() {
		return "", fmt.Errorf("%w: string length %d exceeds remaining %d", ErrBadMessage, n, buf.Len())
	}
	b := make([]byte, n)
	if _, err := buf.Read(b); err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrBadMessage, err)
	}
	return string(b), nil
}

func readParams(buf *bytes.Reader) ([]float64, error) {
	var n uint32
	if err := binary.Read(buf, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: param count: %v", ErrBadMessage, err)
	}
	if int(n)*8 > buf.Len() {
		return nil, fmt.Errorf("%w: %d params exceed remaining %d bytes", ErrBadMessage, n, buf.Len())
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]float64, n)
	for i := range out {
		var u uint64
		if err := binary.Read(buf, binary.LittleEndian, &u); err != nil {
			return nil, fmt.Errorf("%w: param %d: %v", ErrBadMessage, i, err)
		}
		out[i] = math.Float64frombits(u)
	}
	return out, nil
}

// Decode parses the SPVM wire format back into a Message ("decode and
// execute message" — the decode half).
func Decode(b []byte) (*Message, error) {
	buf := bytes.NewReader(b)
	var mg uint16
	if err := binary.Read(buf, binary.LittleEndian, &mg); err != nil || mg != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	tb, err := buf.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: missing type", ErrBadMessage)
	}
	m := &Message{Type: MsgType(tb)}
	readI64 := func(dst *int64) error {
		return binary.Read(buf, binary.LittleEndian, dst)
	}
	readTask := func(dst *TaskID) error {
		var v int64
		if err := readI64(&v); err != nil {
			return err
		}
		*dst = TaskID(v)
		return nil
	}
	switch m.Type {
	case MsgInitiate:
		if m.TaskType, err = readString(buf); err != nil {
			return nil, err
		}
		if err = readI64(&m.Replications); err != nil {
			return nil, fmt.Errorf("%w: replications", ErrBadMessage)
		}
		if err = readTask(&m.Parent); err != nil {
			return nil, fmt.Errorf("%w: parent", ErrBadMessage)
		}
		if m.Params, err = readParams(buf); err != nil {
			return nil, err
		}
	case MsgTerminate:
		if err = readTask(&m.Task); err != nil {
			return nil, fmt.Errorf("%w: task", ErrBadMessage)
		}
		if err = readTask(&m.Parent); err != nil {
			return nil, fmt.Errorf("%w: parent", ErrBadMessage)
		}
	case MsgLoadCode:
		if m.CodeName, err = readString(buf); err != nil {
			return nil, err
		}
		if err = readI64(&m.CodeWords); err != nil {
			return nil, fmt.Errorf("%w: code words", ErrBadMessage)
		}
		if err = readI64(&m.LocalWords); err != nil {
			return nil, fmt.Errorf("%w: local words", ErrBadMessage)
		}
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadMessage, tb)
	}
	if buf.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, buf.Len())
	}
	return m, nil
}
