package auvm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/errs"
	"repro/internal/fem"
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
	mu      sync.Mutex // serializes Delete's check-then-batch
}

// NewDatabase returns an empty in-memory database — the pre-durability
// behaviour, used by tests and embedded callers.
func NewDatabase() *Database {
	return NewDatabaseOn(store.NewMemStore(), store.BackendMem)
}

// NewDatabaseOn builds a database over an opened store.  backend is
// the configured backend name, reported by the version verb.
func NewDatabaseOn(st store.Store, backend string) *Database {
	return &Database{st: st, backend: backend}
}

// Backend reports the configured storage backend name ("mem", "file").
func (db *Database) Backend() string { return db.backend }

// modelDTO is the gob form of a model (gob needs exported, concrete
// fields): what a snapshot file carries per model, and what "m:<name>"
// held in format-1 stores.  Format 2 writes records (record.go).
type modelDTO struct {
	Name     string
	Nodes    []fem.NodeCoord
	Bars     []barDTO
	CSTs     []cstDTO
	Order    []byte // 0 = next bar, 1 = next cst, preserving element order
	Fixed    []int
	LoadSets []loadSetDTO
}

type barDTO struct {
	N1, N2 int
	Mat    fem.Material
}

type cstDTO struct {
	N1, N2, N3 int
	Mat        fem.Material
}

type loadSetDTO struct {
	Name    string
	Entries []fem.LoadEntry
}

// encodeModel flattens a model (plus its load sets) into the DTO.
func encodeModel(m *fem.Model, loads []*fem.LoadSet) (*modelDTO, error) {
	dto := &modelDTO{Name: m.Name, Nodes: append([]fem.NodeCoord(nil), m.Nodes...)}
	for _, e := range m.Elements {
		switch el := e.(type) {
		case *fem.Bar:
			dto.Bars = append(dto.Bars, barDTO{N1: el.N1, N2: el.N2, Mat: el.Mat})
			dto.Order = append(dto.Order, elemBar)
		case *fem.CST:
			dto.CSTs = append(dto.CSTs, cstDTO{N1: el.N1, N2: el.N2, N3: el.N3, Mat: el.Mat})
			dto.Order = append(dto.Order, elemCST)
		default:
			return nil, fmt.Errorf("auvm: cannot serialize element kind %q", e.Kind())
		}
	}
	for d := 0; d < m.NumDOF(); d++ {
		if m.Fixed(d) {
			dto.Fixed = append(dto.Fixed, d)
		}
	}
	for _, ls := range loads {
		dto.LoadSets = append(dto.LoadSets, loadSetDTO{Name: ls.Name, Entries: append([]fem.LoadEntry(nil), ls.Entries...)})
	}
	return dto, nil
}

// decodeModel rebuilds a model and its load sets from the DTO.
func decodeModel(dto *modelDTO) (*fem.Model, []*fem.LoadSet, error) {
	m := fem.NewModel(dto.Name)
	for _, n := range dto.Nodes {
		m.AddNode(n.X, n.Y)
	}
	bi, ci := 0, 0
	for _, which := range dto.Order {
		var e fem.Element
		switch which {
		case elemBar:
			if bi >= len(dto.Bars) {
				return nil, nil, errCorruptRecord
			}
			b := dto.Bars[bi]
			bi++
			e = &fem.Bar{N1: b.N1, N2: b.N2, Mat: b.Mat}
		case elemCST:
			if ci >= len(dto.CSTs) {
				return nil, nil, errCorruptRecord
			}
			c := dto.CSTs[ci]
			ci++
			e = &fem.CST{N1: c.N1, N2: c.N2, N3: c.N3, Mat: c.Mat}
		default:
			return nil, nil, fmt.Errorf("auvm: corrupt element order byte %d", which)
		}
		if err := m.AddElement(e); err != nil {
			return nil, nil, err
		}
	}
	for _, d := range dto.Fixed {
		if err := m.FixDOF(d); err != nil {
			return nil, nil, err
		}
	}
	var loads []*fem.LoadSet
	for _, ls := range dto.LoadSets {
		loads = append(loads, &fem.LoadSet{Name: ls.Name, Entries: ls.Entries})
	}
	return m, loads, nil
}

// Store serializes a model and its load sets into the database ("store
// model in DB").
func (db *Database) Store(m *fem.Model, loads []*fem.LoadSet) error {
	raw, err := encodeModelRecord(m, loads)
	if err != nil {
		return err
	}
	return db.st.Put(store.ModelKey(m.Name), raw)
}

// Retrieve deserializes a model and its load sets out of the database
// ("retrieve").  The caller receives fresh copies.  The stored bytes say
// which reader they need: a record, or the gob modelDTO a format-1 store
// still holds until the model is next stored.
func (db *Database) Retrieve(name string) (*fem.Model, []*fem.LoadSet, error) {
	raw, err := db.st.Get(store.ModelKey(name))
	if err != nil {
		return nil, nil, fmt.Errorf("auvm: model %q not in database: %w", name, err)
	}
	if isModelRecord(raw) {
		return decodeModelRecord(raw)
	}
	var dto modelDTO
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&dto); err != nil {
		return nil, nil, fmt.Errorf("auvm: decode model %q: %w", name, err)
	}
	return decodeModel(&dto)
}

// Delete removes a model, reporting whether it existed.  An older daemon
// left an "s:<name>:<seq>" record behind every solve; nothing reads or
// writes those any more, and a model's leftovers go with it here, in the
// same atomic batch.
func (db *Database) Delete(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.st.Get(store.ModelKey(name)); err != nil {
		return false
	}
	ops := []store.Op{store.Del(store.ModelKey(name))}
	db.st.Seek(store.SolutionPrefix(name), func(k string, _ []byte) bool {
		ops = append(ops, store.Del(k))
		return true
	})
	return db.st.Batch(ops) == nil
}

// Names returns the stored model names, sorted.
func (db *Database) Names() []string {
	out := []string{}
	db.st.Seek(store.PrefixModel, func(k string, _ []byte) bool {
		out = append(out, k[len(store.PrefixModel):])
		return true
	})
	return out
}

// Bytes returns the database's total serialized model size (storage
// accounting; job records are not charged to the user).
func (db *Database) Bytes() int64 {
	var t int64
	db.st.Seek(store.PrefixModel, func(_ string, v []byte) bool {
		t += int64(len(v))
		return true
	})
	return t
}
