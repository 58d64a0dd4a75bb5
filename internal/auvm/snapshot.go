package auvm

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"slices"

	"repro/internal/command"
	"repro/internal/fem"
	"repro/internal/linalg"
)

// Snapshot/restore round-trips a session's workspace through a single
// file: every model with its load sets, latest solution and stresses,
// plus the interpreter state (current material, grid-generation
// parameters) that later verbs like endload depend on.  The format is
// a magic line followed by one gob-encoded snapshotDTO; restore into a
// fresh session reproduces byte-identical renderings for the same
// follow-up script, which the e2e suite pins locally and over the
// wire.

// snapshotMagic heads every snapshot file; the trailing digit is the
// snapshot format version.
const snapshotMagic = "FEM2SNAP1\n"

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

// solutionDTO carries the result state of a solve: the displacement
// vector and the convergence metadata that renders in results.  Flop
// accounting and distributed-solve statistics are deliberately not
// preserved — they describe the machine that ran the solve, not the
// solution.
type solutionDTO struct {
	U          []float64
	Backend    string
	Precond    string
	Iterations int
	Residual   float64
	Refactored bool
}

// doSnapshot writes the session's workspace to a file.
func (s *Session) doSnapshot(c command.Snapshot) (command.Result, error) {
	dto := snapshotDTO{Material: s.material(), Grids: map[string]fem.RectGridOpts{}}
	// snapshot holds no model, so it reads every entry whole under the
	// workspace lock, results copied before a solve can recycle them.
	for _, e := range s.WS.save() {
		if e.grid != nil {
			dto.Grids[e.model.Name] = *e.grid
		}
		enc, err := encodeModel(e.model, e.loads)
		if err != nil {
			return nil, err
		}
		ms := modelSnapshotDTO{Model: *enc, Stresses: e.stresses}
		if sol := e.sol; sol != nil {
			ms.Solution = &solutionDTO{
				U: sol.U, Backend: sol.Backend,
				Precond: sol.Precond, Iterations: sol.Iterations,
				Residual: sol.Residual, Refactored: sol.Refactored,
			}
		}
		dto.Models = append(dto.Models, ms)
	}
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	if err := gob.NewEncoder(&buf).Encode(&dto); err != nil {
		return nil, fmt.Errorf("auvm: encode snapshot: %w", err)
	}
	if err := os.WriteFile(c.Path, buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("auvm: write snapshot: %w", err)
	}
	return &command.SnapshotResult{Path: c.Path, Models: len(dto.Models),
		Bytes: int64(buf.Len())}, nil
}

// doRestore loads a snapshot file into the session's workspace,
// overwriting models of the same name and merging interpreter state.
// Every model is decoded before anything is applied, so a file with one
// bad model replaces none.  With a scheduler attached it then holds every
// model the file carries, in name order, as Do holds the one model of any
// other verb: if a job is solving one of them, nothing is replaced and
// restore is refused with the busy error naming the job, which still
// answers for the model it solved.
func (s *Session) doRestore(ctx context.Context, c command.Restore) (command.Result, error) {
	raw, err := os.ReadFile(c.Path)
	if err != nil {
		return nil, fmt.Errorf("auvm: read snapshot: %w", err)
	}
	if len(raw) < len(snapshotMagic) || string(raw[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("auvm: %s is not a FEM-2 snapshot", c.Path)
	}
	var dto snapshotDTO
	if err := gob.NewDecoder(bytes.NewReader(raw[len(snapshotMagic):])).Decode(&dto); err != nil {
		return nil, fmt.Errorf("auvm: decode snapshot: %w", err)
	}
	models := make([]*fem.Model, len(dto.Models))
	loads := make([][]*fem.LoadSet, len(dto.Models))
	for i := range dto.Models {
		m, ls, err := decodeModel(&dto.Models[i].Model)
		if err != nil {
			return nil, fmt.Errorf("auvm: restore model %q: %w", dto.Models[i].Model.Name, err)
		}
		models[i], loads[i] = m, ls
	}
	if s.Jobs != nil {
		names := make([]string, 0, len(dto.Models))
		for _, ms := range dto.Models {
			names = append(names, ms.Model.Name)
		}
		slices.Sort(names)
		names = slices.Compact(names)
		release := func(held []string) {
			for _, name := range held {
				s.Jobs.Release(s.User, name)
			}
		}
		for i, name := range names {
			if err := s.Jobs.Hold(ctx, s.User, name, c); err != nil {
				release(names[:i])
				return nil, err
			}
		}
		defer release(names)
	}
	for i, ms := range dto.Models {
		m := models[i]
		if o, ok := dto.Grids[m.Name]; ok {
			s.WS.PutGrid(m, o)
		} else {
			s.WS.PutModel(m)
		}
		for _, ls := range loads[i] {
			if err := s.WS.PutLoadSet(m.Name, ls); err != nil {
				return nil, err
			}
		}
		if ms.Solution != nil {
			s.WS.PutSolution(m.Name, &fem.Solution{
				U: linalg.Vector(ms.Solution.U), Backend: ms.Solution.Backend,
				Precond: ms.Solution.Precond, Iterations: ms.Solution.Iterations,
				Residual: ms.Solution.Residual, Refactored: ms.Solution.Refactored,
			})
		}
		if ms.Stresses != nil {
			s.WS.PutStresses(m.Name, ms.Stresses)
		}
	}
	s.stateMu.Lock()
	s.mat = dto.Material
	s.stateMu.Unlock()
	return &command.RestoreResult{Path: c.Path, Models: len(dto.Models)}, nil
}
