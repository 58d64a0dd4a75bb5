// Package store is the durable key-value layer under FEM-2: one small
// Store interface, swappable backends behind a Config, and the
// degradation Guard that core.Open stacks on the backend — the neo-go
// core/storage + dbconfig layering, sized for this repo.  There is no
// read cache in the stack: MemStore answers from its map and FileStore
// with one pread at an indexed offset (CachedStore exists, unstacked;
// see its comment).
//
// Everything the service persists goes through this package under a
// documented key schema (see docs/storage.md):
//
//	meta:format        store format version ("3"), which auvm.UpgradeStore checks and writes at open
//	m:<name>           model topology + properties (auvm record)
//	j:<id>             job records, id zero-padded %016x (JSON)
//
// Keys are ordered by byte comparison, so zero-padding the numeric
// components makes Seek return job records in submission order for free.
//
// Encodings are deterministic: the same logical value always encodes
// to the same bytes, so snapshot/restore round-trips and crash
// recovery are reproducible.
package store

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/errs"
)

// ErrClosed is returned by every operation on a closed store.
var ErrClosed = fmt.Errorf("store: closed")

// ErrNotFound wraps the shared not-found sentinel so callers can test
// with errors.Is(err, errs.ErrNotFound) across every layer.
var ErrNotFound = errs.ErrNotFound

// ErrConflict is returned by BatchIf when the guarded key's current
// value does not match the expected bytes: somebody else won the race.
// The batch was not applied.
var ErrConflict = errors.New("store: conditional batch conflict")

// KeyFormat is the metadata key holding the store format version.
const KeyFormat = "meta:format"

// KeyProbe is the metadata key the degradation guard's health probe
// writes to test whether the backend accepts writes again (see Guard).
const KeyProbe = "meta:probe"

// KeyLease is the metadata key holding the cluster leadership lease: a
// JSON record naming the current leader, its advertised address, the
// lease epoch, and the expiry instant (see internal/cluster and
// docs/cluster.md).  It changes on every renewal, which is what makes
// it usable as the compare key for acquire/renew races.
const KeyLease = "meta:lease"

// KeyEpoch is the metadata key holding just the current lease epoch as
// decimal ASCII.  Unlike KeyLease it changes only on takeover, so data
// batches fence against it without racing the renewal loop.
const KeyEpoch = "meta:epoch"

// Key-schema prefixes.  Callers build full keys with the helpers below
// and iterate families with Seek(prefix).
const (
	PrefixModel = "m:"
	PrefixJob   = "j:"
)

// ModelKey returns the key holding model name's encoded topology.
func ModelKey(name string) string { return PrefixModel + name }

// JobKey returns the key for a job record.  The id is zero-padded hex
// so byte order is submission order: PrefixJob then the id as fmt's
// %016x writes it, a negative id as '-' and its magnitude padded to 15.
// Three journal writes of every job build one, so it is appended into a
// buffer on the stack rather than formatted.
func JobKey(id int64) string {
	var buf [len(PrefixJob) + 17]byte // prefix, sign, 16 hex digits
	var digits [16]byte
	b := append(buf[:0], PrefixJob...)
	u, width := uint64(id), 16
	if id < 0 {
		b = append(b, '-')
		u, width = -u, 15
	}
	hex := strconv.AppendUint(digits[:0], u, 16)
	for range width - len(hex) {
		b = append(b, '0')
	}
	return string(append(b, hex...))
}

// Op is one write in a Batch: a put (Value non-nil semantics chosen by
// Delete flag, not nilness, so empty values round-trip) or a delete.
type Op struct {
	Key    string
	Value  []byte
	Delete bool
}

// Put builds a put Op.
func Put(key string, value []byte) Op { return Op{Key: key, Value: value} }

// Del builds a delete Op.
func Del(key string) Op { return Op{Key: key, Delete: true} }

// Store is the one interface every backend implements.
//
// Contracts shared by all implementations (pinned by the conformance
// suite in conformance_test.go):
//
//   - Get returns a copy the caller owns; a missing key reports an
//     error satisfying errors.Is(err, ErrNotFound).
//   - Has reports whether a key holds a value, an empty one included,
//     from the backend's index alone: it reads and copies no value.
//   - Put stores a copy of value; the caller may reuse its buffer.
//   - Delete of a missing key is a no-op, not an error.
//   - Seek visits keys with the given prefix in ascending byte order
//     and stops early when fn returns false.  The value passed to fn
//     is owned by fn only for the duration of the call.
//   - Batch applies all ops atomically: after a crash either every op
//     in the batch is visible or none is.
//   - Every method on a closed store returns ErrClosed (Seek returns
//     it, Get wraps it).
type Store interface {
	Get(key string) ([]byte, error)
	Has(key string) (bool, error)
	Put(key string, value []byte) error
	Delete(key string) error
	Seek(prefix string, fn func(key string, value []byte) bool) error
	Batch(ops []Op) error
	Close() error
}

// Conditional is a Store with the compare-and-batch extension every
// backend in this repo implements: BatchIf applies ops atomically if and
// only if the current value under key equals want byte-for-byte (want
// nil means "key must be absent").  On mismatch it returns ErrConflict
// and writes nothing.  The compare and the apply happen under one lock
// (and, for a shared file store, one file lock), so two racing writers
// cannot both see the same old value and both win — which is exactly the
// primitive lease acquisition and epoch fencing need.
//
// BatchIf ends at the degradation guard: the lease coordinator and the
// epoch fence call it there, and nothing above the fence has it.
type Conditional interface {
	Store
	BatchIf(key string, want []byte, ops []Op) error
}
