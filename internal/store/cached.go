package store

import "sync"

// CachedStore is a write-through FIFO read cache in front of any
// backend, in the role of neo-go's MemCachedStore: the backend is
// written first, then the cache, so the cache is never ahead of durable
// state.  Seek delegates to the backend.
//
// Nothing in the daemon stacks it: core.Open composes backend → Guard →
// [cluster.Fenced], because no verb re-reads what the service writes
// (the job journal) and the backends already answer a Get from memory
// (MemStore) or one pread (FileStore).  It is kept for the benchmark's
// store.cached_get_hit_us probe, which times its Get; once that probe is
// retired the type goes.
type CachedStore struct {
	backend Store

	mu    sync.Mutex
	cache map[string][]byte
	fifo  []string // insertion order for bounded eviction
	limit int
	// gen counts completed writes.  A Get that missed fills the cache
	// only if no write completed while it read the backend: otherwise
	// the value it read may be older than the one that write cached.
	gen    uint64
	closed bool
}

// NewCached wraps backend with a read cache of at most limit entries
// (4096 when limit <= 0).
func NewCached(backend Store, limit int) *CachedStore {
	if limit <= 0 {
		limit = 4096
	}
	return &CachedStore{backend: backend, cache: map[string][]byte{}, limit: limit}
}

// Get returns the cached value, filling the cache from the backend on
// a miss.  The returned slice is the caller's copy.
func (s *CachedStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if v, ok := s.cache[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		s.mu.Unlock()
		return out, nil
	}
	gen := s.gen
	s.mu.Unlock()
	v, err := s.backend.Get(key)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.gen == gen {
		owned := make([]byte, len(v))
		copy(owned, v)
		s.fillLocked(key, owned)
	}
	s.mu.Unlock()
	return v, nil
}

// Put writes through to the backend, then updates the cache.
func (s *CachedStore) Put(key string, value []byte) error {
	return s.Batch([]Op{Put(key, value)})
}

// Delete writes through to the backend, then drops the cache entry.
func (s *CachedStore) Delete(key string) error {
	return s.Batch([]Op{Del(key)})
}

// Batch writes through to the backend atomically (a closed backend
// refuses it), then applies the same ops to the cache.
func (s *CachedStore) Batch(ops []Op) error {
	if err := s.backend.Batch(ops); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	for _, op := range ops {
		if op.Delete {
			s.dropLocked(op.Key)
			continue
		}
		v := make([]byte, len(op.Value))
		copy(v, op.Value)
		s.fillLocked(op.Key, v)
	}
	return nil
}

// Has delegates to the backend, which holds every key the cache does.
func (s *CachedStore) Has(key string) (bool, error) { return s.backend.Has(key) }

// Seek delegates to the backend; write-through keeps it coherent.
func (s *CachedStore) Seek(prefix string, fn func(key string, value []byte) bool) error {
	return s.backend.Seek(prefix, fn)
}

// Close closes the backend; the cache stops serving.
func (s *CachedStore) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.backend.Close()
}

// fillLocked inserts an owned value, evicting the oldest insertion
// when the cache is full.
func (s *CachedStore) fillLocked(key string, owned []byte) {
	if _, ok := s.cache[key]; !ok {
		for len(s.fifo) >= s.limit {
			old := s.fifo[0]
			s.fifo = s.fifo[1:]
			delete(s.cache, old)
		}
		s.fifo = append(s.fifo, key)
	}
	s.cache[key] = owned
}

func (s *CachedStore) dropLocked(key string) {
	if _, ok := s.cache[key]; !ok {
		return
	}
	delete(s.cache, key)
	for i, k := range s.fifo {
		if k == key {
			s.fifo = append(s.fifo[:i], s.fifo[i+1:]...)
			break
		}
	}
}
