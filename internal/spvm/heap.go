package spvm

import (
	"errors"
	"fmt"
	"sync"
)

// ErrHeapFull is returned when no free block can satisfy an allocation.
var ErrHeapFull = errors.New("spvm: heap exhausted")

// ErrBadFree is returned for frees of unknown or already-freed addresses.
var ErrBadFree = errors.New("spvm: bad free")

// Heap is the SPVM storage manager: "general heap with variable size
// blocks".  It is a first-fit free-list allocator over a word-addressed
// arena, with block splitting on allocation and coalescing of adjacent
// free blocks on free — the classical design a 1983 systems programmer
// would write.  Addresses are word offsets into the arena.
type Heap struct {
	mu   sync.Mutex
	size int64
	// blocks is kept sorted by offset and partitions the arena exactly.
	blocks []heapBlock
	// byAddr indexes allocated blocks for O(1) free validation.
	byAddr map[int64]int64 // addr -> words

	allocated int64
	highWater int64
	fails     int64
	allocOps  int64
	freeOps   int64
}

type heapBlock struct {
	off, size int64
	free      bool
}

// NewHeap creates a heap managing size words.
func NewHeap(size int64) *Heap {
	if size <= 0 {
		panic(fmt.Sprintf("spvm: heap size %d", size))
	}
	return &Heap{
		size:   size,
		blocks: []heapBlock{{off: 0, size: size, free: true}},
		byAddr: map[int64]int64{},
	}
}

// Alloc reserves words of storage and returns its address (word offset).
func (h *Heap) Alloc(words int64) (int64, error) {
	if words <= 0 {
		return 0, fmt.Errorf("spvm: allocation of %d words", words)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.allocOps++
	for i := range h.blocks {
		b := &h.blocks[i]
		if !b.free || b.size < words {
			continue
		}
		addr := b.off
		if b.size == words {
			b.free = false
		} else {
			// Split: allocated prefix, free suffix.
			rest := heapBlock{off: b.off + words, size: b.size - words, free: true}
			b.size = words
			b.free = false
			h.blocks = append(h.blocks, heapBlock{})
			copy(h.blocks[i+2:], h.blocks[i+1:])
			h.blocks[i+1] = rest
		}
		h.byAddr[addr] = words
		h.allocated += words
		if h.allocated > h.highWater {
			h.highWater = h.allocated
		}
		return addr, nil
	}
	h.fails++
	return 0, fmt.Errorf("%w: %d words requested, %d free (largest block %d)",
		ErrHeapFull, words, h.size-h.allocated, h.largestFreeLocked())
}

// Free releases the allocation at addr, coalescing with free neighbours.
func (h *Heap) Free(addr int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	words, ok := h.byAddr[addr]
	if !ok {
		return fmt.Errorf("%w: address %d not allocated", ErrBadFree, addr)
	}
	delete(h.byAddr, addr)
	h.freeOps++
	h.allocated -= words
	idx := -1
	for i := range h.blocks {
		if h.blocks[i].off == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: block table corrupt at %d", ErrBadFree, addr)
	}
	h.blocks[idx].free = true
	// Coalesce with the following block.
	if idx+1 < len(h.blocks) && h.blocks[idx+1].free {
		h.blocks[idx].size += h.blocks[idx+1].size
		h.blocks = append(h.blocks[:idx+1], h.blocks[idx+2:]...)
	}
	// Coalesce with the preceding block.
	if idx > 0 && h.blocks[idx-1].free {
		h.blocks[idx-1].size += h.blocks[idx].size
		h.blocks = append(h.blocks[:idx], h.blocks[idx+1:]...)
	}
	return nil
}

// HighWater returns the maximum words ever simultaneously allocated — the
// storage requirement figure the experiments report.
func (h *Heap) HighWater() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.highWater
}

func (h *Heap) largestFreeLocked() int64 {
	var mx int64
	for _, b := range h.blocks {
		if b.free && b.size > mx {
			mx = b.size
		}
	}
	return mx
}
