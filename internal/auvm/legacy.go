package auvm

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/fem"
	"repro/internal/store"
)

// The gob forms of a model and a workspace, read and never written: what
// "m:<name>" held before store format 2, until the upgrade at open
// rewrites it, and what a FEM2SNAP1 snapshot file holds.  Gob leaves a
// zero struct field out of the stream, so a -0 written in these forms
// reads back as +0.

// legacySnapshotMagic heads a snapshot file written in gob.
const legacySnapshotMagic = "FEM2SNAP1\n"

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

type snapshotDTO struct {
	Material fem.Material
	Grids    map[string]fem.RectGridOpts
	Models   []modelSnapshotDTO
}

type modelSnapshotDTO struct {
	Model    modelDTO
	Solution *solutionDTO
	Stresses [][]float64
}

type solutionDTO struct {
	U          []float64
	Backend    string
	Precond    string
	Iterations int
	Residual   float64
	Refactored bool
}

// storeFormat is the store format this package reads and writes, kept
// under store.KeyFormat: every "m:<name>" value is a model record.
const storeFormat = "3"

// legacySolvePrefix heads the solve-history records, "s:<name>:<seq>",
// a format-1 or format-2 store may hold; nothing ever read them.
const legacySolvePrefix = "s:"

// UpgradeStore brings a store to the current format when a daemon opens
// it.  A fresh store is stamped.  A format-1 or format-2 store has every
// gob model rewritten as the record store writes for it, load sets in
// name order, and every solve-history record deleted, in the one
// conditional batch that stamps it; of two daemons upgrading one shared
// file, one applies it and the other reads the new format and opens.  A
// value neither reader accepts stays as it is, for retrieve to report.
// A current store is not written to, and any other format is refused.
func UpgradeStore(st store.Conditional) error {
	was, err := st.Get(store.KeyFormat)
	switch {
	case errors.Is(err, ErrNotFound):
		was = nil
	case err != nil:
		return fmt.Errorf("store: reading format version: %w", err)
	case string(was) == storeFormat:
		return nil
	case string(was) != "1" && string(was) != "2":
		return fmt.Errorf("store: format version %q not supported (want %q)", was, storeFormat)
	}
	var ops []store.Op
	err = st.Seek(store.PrefixModel, func(k string, v []byte) bool {
		var dto modelDTO
		if _, _, err := decodeModelRecord(v); err == nil || gob.NewDecoder(bytes.NewReader(v)).Decode(&dto) != nil {
			return true
		}
		if m, loads, err := decodeModel(&dto); err == nil {
			slices.SortStableFunc(loads, func(a, b *fem.LoadSet) int { return strings.Compare(a.Name, b.Name) })
			raw, _ := encodeModelRecord(m, loads) // bars and CSTs only: it cannot fail
			ops = append(ops, store.Put(k, raw))
		}
		return true
	})
	if err == nil {
		err = st.Seek(legacySolvePrefix, func(k string, _ []byte) bool {
			ops = append(ops, store.Del(k))
			return true
		})
	}
	if err != nil {
		return err
	}
	err = st.BatchIf(store.KeyFormat, was, append(ops, store.Put(store.KeyFormat, []byte(storeFormat))))
	if errors.Is(err, store.ErrConflict) {
		return UpgradeStore(st) // another daemon wrote the format first: read it again
	}
	return err
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

// decodeLegacySnapshot reads the body of a FEM2SNAP1 file into the
// session material and the entries it carries.
func decodeLegacySnapshot(body []byte) (fem.Material, []savedEntry, error) {
	var dto snapshotDTO
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&dto); err != nil {
		return fem.Material{}, nil, fmt.Errorf("auvm: decode snapshot: %w", err)
	}
	saved := make([]savedEntry, len(dto.Models))
	for i, ms := range dto.Models {
		m, loads, err := decodeModel(&ms.Model)
		if err != nil {
			return fem.Material{}, nil, fmt.Errorf("auvm: restore model %q: %w", ms.Model.Name, err)
		}
		se := savedEntry{model: m, loads: loads, stresses: ms.Stresses}
		if o, ok := dto.Grids[m.Name]; ok {
			se.grid = &o
		}
		if sol := ms.Solution; sol != nil {
			se.sol = &fem.Solution{U: sol.U, Backend: sol.Backend, Precond: sol.Precond,
				Iterations: sol.Iterations, Residual: sol.Residual, Refactored: sol.Refactored}
		}
		saved[i] = se
	}
	return dto.Material, saved, nil
}
