package store

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultCacheEntries bounds the CachedStore read cache.
const DefaultCacheEntries = 4096

// CachedStore is a write-through cache in front of any backend, in the
// role of neo-go's MemCachedStore: hot Gets never touch the backend,
// and because every write goes through to the backend first, the cache
// can never be ahead of durable state — a crash loses nothing that was
// acknowledged.
//
// Seek always delegates to the backend (which the write-through policy
// keeps coherent), so iteration order and visibility match the backend
// exactly.
type CachedStore struct {
	backend Store

	mu     sync.Mutex
	cache  map[string][]byte
	fifo   []string // insertion order for bounded eviction
	limit  int
	closed bool

	// Hit/miss counters and latency histograms; nil no-op sinks until
	// SetObs (see internal/obs).
	mHits, mMisses     *obs.Counter
	hGet, hPut, hBatch *obs.Histogram
}

// NewCached wraps backend with a read cache of at most limit entries
// (DefaultCacheEntries when limit <= 0).
func NewCached(backend Store, limit int) *CachedStore {
	if limit <= 0 {
		limit = DefaultCacheEntries
	}
	return &CachedStore{backend: backend, cache: map[string][]byte{}, limit: limit}
}

// SetObs routes the cache's hit/miss stats and operation latencies
// through reg.  Nil reg reverts to no-op sinks.
func (s *CachedStore) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mHits = reg.Counter(obs.StoreCacheHits)
	s.mMisses = reg.Counter(obs.StoreCacheMisses)
	s.hGet = reg.Histogram(obs.StoreGetLatency)
	s.hPut = reg.Histogram(obs.StorePutLatency)
	s.hBatch = reg.Histogram(obs.StoreBatchLatency)
}

// Get returns the cached value, filling the cache from the backend on
// a miss.  The returned slice is the caller's copy.
func (s *CachedStore) Get(key string) ([]byte, error) {
	start := time.Now()
	defer func() { s.hGet.Observe(time.Since(start)) }()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if v, ok := s.cache[key]; ok {
		s.mHits.Inc()
		out := make([]byte, len(v))
		copy(out, v)
		s.mu.Unlock()
		return out, nil
	}
	s.mMisses.Inc()
	s.mu.Unlock()
	v, err := s.backend.Get(key)
	if err != nil {
		return nil, err
	}
	s.fill(key, v)
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Put writes through to the backend, then updates the cache.
func (s *CachedStore) Put(key string, value []byte) error {
	start := time.Now()
	defer func() { s.hPut.Observe(time.Since(start)) }()
	return s.Batch([]Op{Put(key, value)})
}

// Delete writes through to the backend, then drops the cache entry.
func (s *CachedStore) Delete(key string) error {
	return s.Batch([]Op{Del(key)})
}

// Batch writes through to the backend atomically, then applies the
// same ops to the cache.
func (s *CachedStore) Batch(ops []Op) error {
	start := time.Now()
	defer func() { s.hBatch.Observe(time.Since(start)) }()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	if err := s.backend.Batch(ops); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
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

// Invalidate drops the whole cache.  core calls it after the shared
// file backend folded in what another process committed (Refresh, Seal):
// entries cached before may now be stale, and refilling on demand is
// cheaper than diffing.
func (s *CachedStore) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.cache = map[string][]byte{}
		s.fifo = s.fifo[:0]
	}
}

// Seek delegates to the backend; write-through keeps it coherent.
func (s *CachedStore) Seek(prefix string, fn func(key string, value []byte) bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	return s.backend.Seek(prefix, fn)
}

// Close closes the backend and drops the cache.
func (s *CachedStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.cache = nil
	s.fifo = nil
	s.mu.Unlock()
	return s.backend.Close()
}

func (s *CachedStore) fill(key string, v []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	owned := make([]byte, len(v))
	copy(owned, v)
	s.fillLocked(key, owned)
}

// fillLocked inserts an owned value, evicting the oldest insertion
// when the cache is full.  FIFO is deliberate: cheap, deterministic,
// and the working set (models + recent jobs) fits the default bound.
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
