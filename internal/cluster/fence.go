package cluster

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/store"
)

// Fenced is the write barrier between a daemon and the shared store:
// reads pass through, writes require a live lease and are rewritten
// into conditional batches asserting store.KeyEpoch still holds this
// daemon's epoch.  It is the top of core's store stack, on the guard.
type Fenced struct {
	inner store.Conditional
	coord *Coordinator

	mFenced *obs.Counter
}

// NewFenced wraps inner with coord's fence.
func NewFenced(inner store.Conditional, coord *Coordinator, reg *obs.Registry) *Fenced {
	return &Fenced{inner: inner, coord: coord, mFenced: reg.Counter(obs.ClusterFencedWrites)}
}

// Get passes through: followers serve reads.
func (f *Fenced) Get(key string) ([]byte, error) { return f.inner.Get(key) }

// Has passes through like Get.
func (f *Fenced) Has(key string) (bool, error) { return f.inner.Has(key) }

// Seek passes through like Get.
func (f *Fenced) Seek(prefix string, fn func(key string, value []byte) bool) error {
	return f.inner.Seek(prefix, fn)
}

func (f *Fenced) Put(key string, value []byte) error {
	return f.write([]store.Op{store.Put(key, value)})
}

func (f *Fenced) Delete(key string) error {
	return f.write([]store.Op{store.Del(key)})
}

func (f *Fenced) Batch(ops []store.Op) error { return f.write(ops) }

// write stamps the epoch fence onto one batch.  Not leader → refuse
// before touching the store; epoch superseded → ErrFenced and an
// immediate self-demotion (somebody took over while we still thought
// we led — the exact stale-leader scenario the fence exists for).
func (f *Fenced) write(ops []store.Op) error {
	epoch, ok := f.coord.Serving()
	if !ok {
		return ErrNotLeader
	}
	err := f.inner.BatchIf(store.KeyEpoch, epochBytes(epoch), ops)
	if errors.Is(err, store.ErrConflict) {
		f.mFenced.Inc()
		f.coord.fence()
		return fmt.Errorf("%w (epoch %d superseded)", ErrFenced, epoch)
	}
	return err
}

// Close closes the backend chain.
func (f *Fenced) Close() error { return f.inner.Close() }
