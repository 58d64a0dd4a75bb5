package arch

import (
	"errors"
	"fmt"
	"sync"
)

// ErrOutOfMemory is returned when a cluster's shared memory cannot satisfy
// an allocation.
var ErrOutOfMemory = errors.New("arch: cluster shared memory exhausted")

// SharedMemory models one cluster's shared memory: a capacity in words
// from which tasks allocate their arrays ("large storage requirements;
// dynamic allocation").  Nothing frees, so the words in use are also the
// high-water mark the experiments report as an application's storage
// requirement.
type SharedMemory struct {
	mu       sync.Mutex
	capacity int64
	used     int64
}

// NewSharedMemory returns an empty memory of the given word capacity.
func NewSharedMemory(capacity int64) *SharedMemory {
	return &SharedMemory{capacity: capacity}
}

// Alloc reserves words of storage.
func (m *SharedMemory) Alloc(words int64) error {
	if words <= 0 {
		return fmt.Errorf("arch: allocation of %d words", words)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.used+words > m.capacity {
		return fmt.Errorf("%w: %d used + %d requested > %d capacity",
			ErrOutOfMemory, m.used, words, m.capacity)
	}
	m.used += words
	return nil
}

// HighWater returns the words allocated, the most ever in use.
func (m *SharedMemory) HighWater() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}
