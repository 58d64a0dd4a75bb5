// Package auvm implements the FEM-2 application user's virtual machine:
// the interactive workstation view of the system.  A structural engineer
// stores structural model descriptions, invokes analysis operations, and
// displays results through a small command language; user-local data
// lives in a workspace, and long-term shared data in a model database.
//
// The paper's AUVM component list maps directly onto this package:
// data objects (structure model, grid description, node/element
// description, load set, displacements, stresses), operations (define
// structure model, generate grid, define elements, solve, calculate
// stresses, database store/retrieve), sequence control (direct
// interpretation of user commands), data control (workspace vs data
// base), and storage management (dynamic allocation for models, results,
// workspaces; data movement between data base and workspace).
package auvm

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/fem"
	"repro/internal/linalg"
)

// Workspace is one user's local data area: models under construction,
// load sets, solutions, and stresses, one entry per model name.  It
// tracks its word footprint so experiments can report AUVM-level storage
// requirements.
type Workspace struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// entry is everything the workspace keeps under one model name.  Besides
// the model's latest solution and stresses it keeps the ones they
// replaced as spares, which no accessor returns: the model's next solve
// or stress recovery writes over its spare (fem.SolveInto,
// fem.StressesInto), so a steady re-solve allocates nothing in proportion
// to the model.  A spare is never the current result, and a current
// result is read itself only under the model's hold (Session.Do); every
// other reader gets a copy (Solution, Stresses, save), so nothing still
// reads a buffer when it is recycled.
type entry struct {
	model *fem.Model
	// grid holds the options RectGrid generated model from, which endload
	// reads; nil for a model built any other way.
	grid                    *fem.RectGridOpts
	loads                   map[string]*fem.LoadSet
	sol, spareSol           *fem.Solution
	stresses, spareStresses [][]float64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{entries: map[string]*entry{}}
}

// PutModel stores (or replaces) a model in the workspace.  A replacement
// takes over the retained solve state — assembly and factor cache — of
// the model it displaces: generate, retrieve and restore all replace
// through restore, the only way that state changes hands, and the
// replacement's next solve checks all of it against itself before reuse.
// The displaced model's grid options, solution and stresses are dropped:
// they describe another model, whatever its dof count.  The result buffers become the entry's spares, and its load sets
// stay.
func (w *Workspace) PutModel(m *fem.Model) { w.restore([]savedEntry{{model: m}}) }

// PutGrid is PutModel for a model RectGrid generated from o, which
// GridOpts then answers for the name until the model is replaced.
func (w *Workspace) PutGrid(m *fem.Model, o fem.RectGridOpts) {
	w.restore([]savedEntry{{model: m, grid: &o}})
}

// GridOpts returns the options the named model was generated from by
// generate grid, and false for a model built any other way or no model.
func (w *Workspace) GridOpts(name string) (fem.RectGridOpts, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[name]; e != nil && e.grid != nil {
		return *e.grid, true
	}
	return fem.RectGridOpts{}, false
}

// putSolution makes sol the current solution, and the one it replaces the
// spare.
func (e *entry) putSolution(sol *fem.Solution) {
	if e.sol != nil && e.sol != sol {
		e.spareSol = e.sol
	}
	e.sol = sol
}

// putStresses makes st the current stresses, and the ones they replace the
// spare.
func (e *entry) putStresses(st [][]float64) {
	if e.stresses != nil && !sameRows(e.stresses, st) {
		e.spareStresses = e.stresses
	}
	e.stresses = st
}

// sameRows reports whether a and b are one stress table.
func sameRows(a, b [][]float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Model returns the named model, or nil.
func (w *Workspace) Model(name string) *fem.Model {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[name]; e != nil {
		return e.model
	}
	return nil
}

// ModelNames returns the workspace's model names, sorted.
func (w *Workspace) ModelNames() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.entries))
	for k := range w.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PutLoadSet attaches a load set to a model.
func (w *Workspace) PutLoadSet(model string, ls *fem.LoadSet) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.entries[model]
	if e == nil {
		return fmt.Errorf("auvm: no model %q in workspace", model)
	}
	e.loads[ls.Name] = ls
	return nil
}

// LoadSet returns a model's named load set, or nil.
func (w *Workspace) LoadSet(model, name string) *fem.LoadSet {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[model]; e != nil {
		return e.loads[name]
	}
	return nil
}

// LoadSetNames returns a model's load set names, sorted.
func (w *Workspace) LoadSetNames(model string) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	if e := w.entries[model]; e != nil {
		out = make([]string, 0, len(e.loads))
		for k := range e.loads {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// PutSolution stores a model's latest displacement solution; the one it
// replaces becomes the spare its next solve writes over.  A name with no
// model keeps nothing.
func (w *Workspace) PutSolution(model string, s *fem.Solution) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[model]; e != nil {
		e.putSolution(s)
	}
}

// Solution returns a copy of a model's latest solution, or nil.  The
// workspace recycles its own buffers, so the copy is the caller's to keep
// and to change.
func (w *Workspace) Solution(model string) *fem.Solution {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[model]; e != nil {
		return copySolution(e.sol)
	}
	return nil
}

// solution returns a model's latest solution itself, or nil, for the
// model's holder: it stays the model's until the model is solved again or
// replaced, and its buffers are recycled by the solve after that.
func (w *Workspace) solution(model string) *fem.Solution {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[model]; e != nil {
		return e.sol
	}
	return nil
}

// PutStresses stores a model's latest element stresses; the ones they
// replace become the spare its next stress recovery writes over.  A name
// with no model keeps nothing.
func (w *Workspace) PutStresses(model string, s [][]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[model]; e != nil {
		e.putStresses(s)
	}
}

// stresses returns a model's latest stresses themselves, or nil, on the
// same terms as solution.
func (w *Workspace) stresses(model string) [][]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[model]; e != nil {
		return e.stresses
	}
	return nil
}

// savedEntry is one name's entry as snapshot writes it and restore reads
// it: the model, its grid options (nil for none), its load sets in name
// order, and copies of its results.
type savedEntry struct {
	model    *fem.Model
	grid     *fem.RectGridOpts
	loads    []*fem.LoadSet
	sol      *fem.Solution
	stresses [][]float64
}

// save returns every entry in name order, all read under one lock: no
// replacement can pair a model with another's grid options or results,
// and no solve can recycle a result while it is copied, so a caller that
// holds no model gets a consistent workspace.
func (w *Workspace) save() []savedEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]savedEntry, 0, len(w.entries))
	for _, e := range w.entries {
		se := savedEntry{model: e.model, grid: e.grid,
			sol: copySolution(e.sol), stresses: copyRows(e.stresses)}
		for _, ls := range e.loads {
			se.loads = append(se.loads, ls)
		}
		slices.SortFunc(se.loads, func(a, b *fem.LoadSet) int { return strings.Compare(a.Name, b.Name) })
		out = append(out, se)
	}
	slices.SortFunc(out, func(a, b savedEntry) int { return strings.Compare(a.model.Name, b.model.Name) })
	return out
}

// restore is save's inverse, under one lock: each entry's model replaces
// its name's as PutModel does, keeping the name's other load sets, and
// brings its grid options, load sets and results, which become the
// workspace's own; the results they replace become the spares.
func (w *Workspace) restore(saved []savedEntry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, se := range saved {
		e := w.entries[se.model.Name]
		if e == nil {
			e = &entry{loads: map[string]*fem.LoadSet{}}
			w.entries[se.model.Name] = e
		} else {
			se.model.AdoptAssembly(e.model)
		}
		e.model, e.grid = se.model, se.grid
		for _, ls := range se.loads {
			e.loads[ls.Name] = ls
		}
		e.putSolution(se.sol)
		e.putStresses(se.stresses)
	}
}

// copySolution returns a copy of sol with its own U; nil stays nil.
func copySolution(sol *fem.Solution) *fem.Solution {
	if sol == nil {
		return nil
	}
	cp := *sol
	cp.U = slices.Clone(sol.U)
	return &cp
}

// copyRows returns a copy of rows; nil stays nil.
func copyRows(rows [][]float64) [][]float64 {
	if rows == nil {
		return nil
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// spares returns a model's spare solution and stresses, each nil when
// absent, for the model's holder to write over.
func (w *Workspace) spares(model string) (*fem.Solution, [][]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[model]; e != nil {
		return e.spareSol, e.spareStresses
	}
	return nil, nil
}

// Words estimates the workspace footprint in 8-byte words: node
// coordinates, element connectivity, load entries, solutions, and
// stresses.  The spares are scratch and are not counted.
func (w *Workspace) Words() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var words int64
	var nodes []int // one element's connectivity, reused
	for _, e := range w.entries {
		words += int64(2 * len(e.model.Nodes))
		for _, el := range e.model.Elements {
			nodes = el.AppendNodes(nodes[:0])
			words += int64(len(nodes) + 1)
		}
		for _, ls := range e.loads {
			words += int64(2 * len(ls.Entries))
		}
		if e.sol != nil {
			words += int64(len(e.sol.U))
		}
		for _, s := range e.stresses {
			words += int64(len(s))
		}
	}
	return words
}

// MaxDisplacement returns the largest displacement magnitude and its dof
// for a solution (the display operation's headline number).
func MaxDisplacement(s *fem.Solution) (dof int, value float64) {
	dof = -1
	for d, v := range s.U {
		av := v
		if av < 0 {
			av = -av
		}
		if av > value {
			value, dof = av, d
		}
	}
	return dof, value
}

// MaxVonMises returns the index and value of the worst-stressed element.
func MaxVonMises(stresses [][]float64) (elem int, value float64) {
	elem = -1
	for i, s := range stresses {
		if vm := fem.VonMises(s); vm > value {
			value, elem = vm, i
		}
	}
	return elem, value
}

// displacementNorm is the displayed solution magnitude.
func displacementNorm(s *fem.Solution) float64 {
	return linalg.NormInf(s.U)
}
