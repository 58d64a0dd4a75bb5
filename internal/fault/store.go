package fault

import (
	"fmt"

	"repro/internal/store"
)

// Store op names, as seen by Injector rules.
const (
	OpGet     = "get"
	OpHas     = "has"
	OpPut     = "put"
	OpDelete  = "delete"
	OpSeek    = "seek"
	OpBatch   = "batch"
	OpBatchIf = "batchif"
)

// Store decorates a store backend with an Injector.  Every operation
// first consults the schedule: a matched fault delays and/or fails the
// call before (or, for a torn batch, partway through) the underlying
// store sees it.  With the injector disarmed the wrapper is a
// transparent pass-through — the store conformance suite runs green
// over it, which internal/fault's own tests pin.
type Store struct {
	inner store.Conditional
	in    *Injector
}

// NewStore wraps inner with the injector's weather.
func NewStore(inner store.Conditional, in *Injector) *Store {
	return &Store{inner: inner, in: in}
}

// WrapStore adapts NewStore to the store.Config.Wrap hook signature.
func WrapStore(in *Injector) func(store.Conditional) store.Conditional {
	return func(inner store.Conditional) store.Conditional { return NewStore(inner, in) }
}

func (s *Store) Get(key string) ([]byte, error) {
	if f := s.in.check(OpGet); f != nil && f.Err != nil {
		return nil, fmt.Errorf("get %q: %w", key, f.Err)
	}
	return s.inner.Get(key)
}

func (s *Store) Has(key string) (bool, error) {
	if f := s.in.check(OpHas); f != nil && f.Err != nil {
		return false, fmt.Errorf("has %q: %w", key, f.Err)
	}
	return s.inner.Has(key)
}

func (s *Store) Put(key string, value []byte) error {
	if f := s.in.check(OpPut); f != nil && f.Err != nil {
		return fmt.Errorf("put %q: %w", key, f.Err)
	}
	return s.inner.Put(key, value)
}

func (s *Store) Delete(key string) error {
	if f := s.in.check(OpDelete); f != nil && f.Err != nil {
		return fmt.Errorf("delete %q: %w", key, f.Err)
	}
	return s.inner.Delete(key)
}

func (s *Store) Seek(prefix string, fn func(key string, value []byte) bool) error {
	if f := s.in.check(OpSeek); f != nil && f.Err != nil {
		return fmt.Errorf("seek %q: %w", prefix, f.Err)
	}
	return s.inner.Seek(prefix, fn)
}

// Batch injects the one failure a real atomic backend cannot produce
// but a cheap one can: a torn batch.  A fault with Partial > 0 applies
// the first Partial ops individually before failing, leaving the store
// in the exact half-written state the Batch contract forbids — which is
// what recovery tests want to provoke.
func (s *Store) Batch(ops []Op) error {
	if f := s.in.check(OpBatch); f != nil && f.Err != nil {
		if f.Partial > 0 {
			n := f.Partial
			if n > len(ops) {
				n = len(ops)
			}
			for _, op := range ops[:n] {
				var err error
				if op.Delete {
					err = s.inner.Delete(op.Key)
				} else {
					err = s.inner.Put(op.Key, op.Value)
				}
				if err != nil {
					return fmt.Errorf("batch (torn): %w", err)
				}
			}
		}
		return fmt.Errorf("batch of %d ops: %w", len(ops), f.Err)
	}
	return s.inner.Batch(ops)
}

// BatchIf forwards the conditional batch under its own op name, so
// chaos schedules can stall or fail lease traffic (which rides
// BatchIf) without touching the data path.  Latency-only rules
// (Fault.Err nil) delay inside check and then pass through — that is
// how the lease-race tests hold one contender at the door while the
// other acquires.
func (s *Store) BatchIf(key string, want []byte, ops []Op) error {
	if f := s.in.check(OpBatchIf); f != nil && f.Err != nil {
		return fmt.Errorf("batchif %q: %w", key, f.Err)
	}
	return s.inner.BatchIf(key, want, ops)
}

func (s *Store) Close() error { return s.inner.Close() }

// Op aliases store.Op so rule-building test code can stay inside one
// import.
type Op = store.Op
