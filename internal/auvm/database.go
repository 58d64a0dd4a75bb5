package auvm

import (
	"fmt"
	"sync"

	"repro/internal/errs"
	"repro/internal/fem"
	"repro/internal/hgraph"
	"repro/internal/store"
)

// ErrNotFound is returned when retrieving a model the database does not
// hold.  It aliases the shared errs.ErrNotFound sentinel so errors.Is
// classifies missing objects uniformly across layers.
var ErrNotFound = errs.ErrNotFound

// Database is the AUVM long-term shared store ("data base (long-term
// storage; shared data)").  Models are serialized on store and
// deserialized on retrieve, so the database holds values, not live
// pointers — retrieving gives each user's workspace an independent copy,
// exactly the "data movement between data base and workspace" the paper
// describes.  It is safe for concurrent multi-user access.
//
// Since the durable-storage PR the database is a thin layer over a
// store.Store: models live under "m:<name>" keys (see docs/storage.md),
// so with a file backend they survive a daemon restart.
type Database struct {
	st      store.Store
	backend string
	mu      sync.Mutex // serializes Delete's check-then-delete and guards rec
	rec     []byte     // Store's record buffer, reused: Put copies what it keeps
}

// maxRetainedRecord is the largest record buffer Store keeps for the next
// store; a larger model's record is built in a buffer of its own.
const maxRetainedRecord = 1 << 20

// NewDatabaseOn builds a database over an opened store.  backend is
// the configured backend name, reported by the version verb.
func NewDatabaseOn(st store.Store, backend string) *Database {
	return &Database{st: st, backend: backend}
}

// Backend reports the configured storage backend name ("mem", "file").
func (db *Database) Backend() string { return db.backend }

// Store serializes a model and its load sets into the database ("store
// model in DB").
func (db *Database) Store(m *fem.Model, loads []*fem.LoadSet) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	raw, err := appendModelRecord(db.rec[:0], m, loads)
	if err != nil {
		return err
	}
	if cap(raw) <= maxRetainedRecord {
		db.rec = raw
	}
	return db.st.Put(store.ModelKey(m.Name), raw)
}

// Retrieve deserializes a model and its load sets out of the database
// ("retrieve").  The caller receives fresh copies.
func (db *Database) Retrieve(name string) (*fem.Model, []*fem.LoadSet, error) {
	raw, err := db.st.Get(store.ModelKey(name))
	if err != nil {
		return nil, nil, fmt.Errorf("auvm: model %q not in database: %w", name, err)
	}
	return decodeModelRecord(raw)
}

// ModelGraph builds the formal H-graph model of the model stored under
// name, in the language of hgraph.StructureModelGrammar, from what
// Retrieve reads out of the stored bytes: the grammar specifies what the
// database holds.  Experiment E11 counts the stored models it accepts.
func (db *Database) ModelGraph(name string) (*hgraph.Graph, error) {
	m, loads, err := db.Retrieve(name)
	if err != nil {
		return nil, err
	}
	return modelGraph(m, loads), nil
}

// Delete removes a model, reporting whether it was there.  An error is a
// store that could not be read or written, and then nothing was removed.
func (db *Database) Delete(name string) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ok, err := db.st.Has(store.ModelKey(name))
	if !ok || err != nil {
		return false, err
	}
	return true, db.st.Delete(store.ModelKey(name))
}

// List returns the stored model names, sorted, and their total serialized
// size (storage accounting; job records are not charged to the user), from
// one scan; on an error the list is not whole.
func (db *Database) List() ([]string, int64, error) {
	names := []string{}
	var size int64
	err := db.st.Seek(store.PrefixModel, func(k string, v []byte) bool {
		names = append(names, k[len(store.PrefixModel):])
		size += int64(len(v))
		return true
	})
	return names, size, err
}
