package auvm

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/fem"
)

// The gob forms of a model and a workspace, read and never written: what
// "m:<name>" holds in a format-1 store until the model is next stored, and
// what a FEM2SNAP1 snapshot file holds.  Gob leaves a zero struct field
// out of the stream, so a -0 written in these forms reads back as +0.

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

// decodeGobModel reads a format-1 "m:<name>" value.
func decodeGobModel(name string, raw []byte) (*fem.Model, []*fem.LoadSet, error) {
	var dto modelDTO
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&dto); err != nil {
		return nil, nil, fmt.Errorf("auvm: decode model %q: %w", name, err)
	}
	return decodeModel(&dto)
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
