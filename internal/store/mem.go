package store

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// MemStore is the in-memory backend: a mutex-guarded map.  It is the
// default backend and the reference implementation the conformance
// suite pins the file backend against.
type MemStore struct {
	mu     sync.RWMutex
	m      map[string][]byte
	closed bool
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: map[string][]byte{}}
}

// Get returns a copy of the value under key.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	v, ok := s.m[key]
	if !ok {
		return nil, fmt.Errorf("store: key %q: %w", key, ErrNotFound)
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Has reports whether key holds a value.
func (s *MemStore) Has(key string) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, ErrClosed
	}
	_, ok := s.m[key]
	return ok, nil
}

// Put stores a copy of value under key.
func (s *MemStore) Put(key string, value []byte) error {
	return s.Batch([]Op{Put(key, value)})
}

// Delete removes key; deleting a missing key is a no-op.
func (s *MemStore) Delete(key string) error {
	return s.Batch([]Op{Del(key)})
}

// Batch applies ops atomically (the map is only touched under the
// write lock, so readers see all of the batch or none of it).
func (s *MemStore) Batch(ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.applyLocked(ops)
	return nil
}

// applyLocked is the one place the map is written.
func (s *MemStore) applyLocked(ops []Op) {
	for _, op := range ops {
		if op.Delete {
			delete(s.m, op.Key)
			continue
		}
		v := make([]byte, len(op.Value))
		copy(v, op.Value)
		s.m[op.Key] = v
	}
}

// BatchIf applies ops atomically iff the current value under key
// equals want (nil want = key absent); otherwise ErrConflict.  The
// compare and the writes share the one write lock, so racing callers
// serialize and exactly one wins.
func (s *MemStore) BatchIf(key string, want []byte, ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	cur, ok := s.m[key]
	if ok != (want != nil) || !bytes.Equal(cur, want) {
		return ErrConflict
	}
	s.applyLocked(ops)
	return nil
}

// Seek visits keys with the given prefix in ascending byte order.
func (s *MemStore) Seek(prefix string, fn func(key string, value []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = s.m[k]
	}
	s.mu.RUnlock()
	for i, k := range keys {
		if !fn(k, vals[i]) {
			return nil
		}
	}
	return nil
}

// Close marks the store closed; further operations return ErrClosed.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	s.m = nil
	return nil
}
