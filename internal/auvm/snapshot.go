package auvm

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/command"
	"repro/internal/fem"
)

// Snapshot/restore round-trips a session's workspace through a single
// file: the magic line, the session material, then every entry save
// returns, in name order: its model record (record.go), then its grid
// options, solution and stresses, each behind a presence byte, in the
// record's encodings (docs/storage.md has the layout table).  One
// workspace has one snapshot, and restore into a fresh session reproduces
// byte-identical renderings for the same follow-up script, which the e2e
// suite pins locally and over the wire.  FEM2SNAP1 files, in gob, are
// still read (legacy.go).
const snapshotMagic = "FEM2SNAP2\n"

// errCorruptSnapshot is a FEM2SNAP2 file that cannot be read back.
var errCorruptSnapshot = errors.New("auvm: corrupt snapshot")

// doSnapshot writes the session's workspace to a file.
func (s *Session) doSnapshot(c command.Snapshot) (command.Result, error) {
	// snapshot holds no model, so it reads every entry whole under the
	// workspace lock, results copied before a solve can recycle them.
	saved := s.WS.save()
	raw, err := encodeSnapshot(s.material(), saved)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(c.Path, raw, 0o644); err != nil {
		return nil, fmt.Errorf("auvm: write snapshot: %w", err)
	}
	return &command.SnapshotResult{Path: c.Path, Models: len(saved), Bytes: int64(len(raw))}, nil
}

// encodeSnapshot writes a FEM2SNAP2 file.
func encodeSnapshot(mat fem.Material, saved []savedEntry) ([]byte, error) {
	b := appendMaterial([]byte(snapshotMagic), mat)
	b = binary.AppendUvarint(b, uint64(len(saved)))
	for _, e := range saved {
		rec, err := encodeModelRecord(e.model, e.loads)
		if err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, uint64(len(rec)))
		b = append(b, rec...)

		b = appendBool(b, e.grid != nil)
		if g := e.grid; g != nil {
			b = binary.AppendVarint(b, int64(g.NX))
			b = binary.AppendVarint(b, int64(g.NY))
			b = appendFloat(b, g.W)
			b = appendFloat(b, g.H)
			b = appendMaterial(b, g.Mat)
			b = appendBool(b, g.ClampLeft)
			b = appendFloat(b, g.Jitter)
			b = binary.AppendVarint(b, g.Seed)
		}

		// A solution's flop counts and parallel-solve statistics describe
		// the machine that ran the solve, not the solution: not kept.
		b = appendBool(b, e.sol != nil)
		if sol := e.sol; sol != nil {
			b = appendFloats(b, sol.U)
			b = appendString(b, sol.Backend)
			b = appendString(b, sol.Precond)
			b = binary.AppendVarint(b, int64(sol.Iterations))
			b = appendFloat(b, sol.Residual)
			b = appendBool(b, sol.Refactored)
		}

		b = appendBool(b, e.stresses != nil)
		if e.stresses != nil {
			b = binary.AppendUvarint(b, uint64(len(e.stresses)))
			for _, row := range e.stresses {
				b = appendFloats(b, row)
			}
		}
	}
	return b, nil
}

// decodeSnapshot reads the body of a FEM2SNAP2 file, checking every count
// against the bytes left before allocating for it.
func decodeSnapshot(body []byte) (fem.Material, []savedEntry, error) {
	r := recordReader{b: body}
	mat := r.materialFields()
	// An entry is at least its length byte, an 8-byte empty record and
	// three presence bytes.
	n := r.count(12)
	saved := make([]savedEntry, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		m, loads, err := decodeModelRecord(r.bytes())
		if err != nil {
			return fem.Material{}, nil, fmt.Errorf("auvm: restore model %d of %d: %w", i+1, n, err)
		}
		e := savedEntry{model: m, loads: loads}
		if r.bool() {
			e.grid = &fem.RectGridOpts{NX: int(r.varint()), NY: int(r.varint()), W: r.float(), H: r.float(),
				Mat: r.materialFields(), ClampLeft: r.bool(), Jitter: r.float(), Seed: r.varint()}
		}
		if r.bool() {
			e.sol = &fem.Solution{U: r.floats(), Backend: r.str(), Precond: r.str(),
				Iterations: int(r.varint()), Residual: r.float(), Refactored: r.bool()}
		}
		if r.bool() {
			e.stresses = make([][]float64, r.count(1))
			for j := range e.stresses {
				e.stresses[j] = r.floats()
			}
		}
		saved = append(saved, e)
	}
	if r.bad || len(r.b) != 0 {
		return fem.Material{}, nil, errCorruptSnapshot
	}
	return mat, saved, nil
}

// readSnapshot decodes a snapshot file of either format into the session
// material and the entries it carries, and refuses a list save could not
// have returned.
func readSnapshot(path string, raw []byte) (mat fem.Material, saved []savedEntry, err error) {
	if body, ok := bytes.CutPrefix(raw, []byte(snapshotMagic)); ok {
		mat, saved, err = decodeSnapshot(body)
	} else if body, ok := bytes.CutPrefix(raw, []byte(legacySnapshotMagic)); ok {
		mat, saved, err = decodeLegacySnapshot(body)
	} else {
		return mat, nil, fmt.Errorf("auvm: %s is not a FEM-2 snapshot", path)
	}
	if err == nil {
		err = checkSaved(saved)
	}
	return mat, saved, err
}

// checkSaved refuses entries save could not have returned: names out of
// order or repeated, within the list or among a model's load sets, and a
// stress row no recovery writes — one neither 1 nor 3 values wide, which
// fem.VonMises would misread, or one narrower than its CST's three.
// Results need not otherwise fit their model: a node or an element added
// after a solve leaves the solution and stresses as they were, and the
// workspace keeps them so until the next solve.  Restore runs checkSaved
// before it replaces anything.
func checkSaved(saved []savedEntry) error {
	for i, e := range saved {
		m := e.model
		if i > 0 && saved[i-1].model.Name >= m.Name {
			return fmt.Errorf("auvm: snapshot model %q out of order: %w", m.Name, errCorruptSnapshot)
		}
		for j := 1; j < len(e.loads); j++ {
			if e.loads[j-1].Name >= e.loads[j].Name {
				return fmt.Errorf("auvm: snapshot load set %q of %q out of order: %w", e.loads[j].Name, m.Name, errCorruptSnapshot)
			}
		}
		for k, row := range e.stresses {
			cst := false
			if k < len(m.Elements) {
				_, cst = m.Elements[k].(*fem.CST)
			}
			if len(row) != 1 && len(row) != 3 || cst && len(row) != 3 {
				return fmt.Errorf("auvm: restore model %q: stress row %d has %d values", m.Name, k, len(row))
			}
		}
	}
	return nil
}

// doRestore loads a snapshot file into the session's workspace,
// overwriting models of the same name and merging interpreter state.
// Every model is decoded and checked before anything is applied, so a
// file with one bad model replaces none.  With a scheduler attached it
// then holds every model the file carries, in name order, as Do holds the
// one model of any other verb: if a job is solving one of them, nothing is
// replaced and restore is refused with the busy error naming the job,
// which still answers for the model it solved.
func (s *Session) doRestore(ctx context.Context, c command.Restore) (command.Result, error) {
	raw, err := os.ReadFile(c.Path)
	if err != nil {
		return nil, fmt.Errorf("auvm: read snapshot: %w", err)
	}
	mat, saved, err := readSnapshot(c.Path, raw)
	if err != nil {
		return nil, err
	}
	if s.Jobs != nil {
		for i, e := range saved {
			if err := s.Jobs.Hold(ctx, s.User, e.model.Name, c); err != nil {
				for _, held := range saved[:i] {
					s.Jobs.Release(s.User, held.model.Name)
				}
				return nil, err
			}
		}
		defer func() {
			for _, e := range saved {
				s.Jobs.Release(s.User, e.model.Name)
			}
		}()
	}
	s.WS.restore(saved)
	s.stateMu.Lock()
	s.mat = mat
	s.stateMu.Unlock()
	return &command.RestoreResult{Path: c.Path, Models: len(saved)}, nil
}
