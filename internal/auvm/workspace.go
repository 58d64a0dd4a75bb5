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
	"sort"
	"sync"

	"repro/internal/fem"
	"repro/internal/linalg"
)

// Workspace is one user's local data area: models under construction,
// load sets, solutions, and stresses.  It tracks its word footprint so
// experiments can report AUVM-level storage requirements.
type Workspace struct {
	mu        sync.Mutex
	models    map[string]*fem.Model
	loads     map[string]map[string]*fem.LoadSet // model -> set name -> set
	solutions map[string]*fem.Solution           // model -> last solution
	stresses  map[string][][]float64             // model -> element stresses
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		models:    map[string]*fem.Model{},
		loads:     map[string]map[string]*fem.LoadSet{},
		solutions: map[string]*fem.Solution{},
		stresses:  map[string][][]float64{},
	}
}

// PutModel stores (or replaces) a model in the workspace.  A replacement
// takes over the retained solve state — assembly and factor cache — of
// the model it displaces: generate, retrieve and restore all replace
// through here, this is the only way that state changes hands, and the
// replacement's next solve checks all of it against itself before reuse.
// The displaced model's solution and stresses are dropped, as DropModel
// drops them: they describe another model, whatever its dof count.
func (w *Workspace) PutModel(m *fem.Model) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev := w.models[m.Name]; prev != nil {
		m.AdoptAssembly(prev)
		delete(w.solutions, m.Name)
		delete(w.stresses, m.Name)
	}
	w.models[m.Name] = m
	if w.loads[m.Name] == nil {
		w.loads[m.Name] = map[string]*fem.LoadSet{}
	}
}

// Model returns the named model, or nil.
func (w *Workspace) Model(name string) *fem.Model {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.models[name]
}

// ModelNames returns the workspace's model names, sorted.
func (w *Workspace) ModelNames() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.models))
	for k := range w.models {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DropModel removes a model and its dependent data, reporting whether it
// existed.
func (w *Workspace) DropModel(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.models[name]; !ok {
		return false
	}
	delete(w.models, name)
	delete(w.loads, name)
	delete(w.solutions, name)
	delete(w.stresses, name)
	return true
}

// PutLoadSet attaches a load set to a model.
func (w *Workspace) PutLoadSet(model string, ls *fem.LoadSet) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.models[model]; !ok {
		return fmt.Errorf("auvm: no model %q in workspace", model)
	}
	if w.loads[model] == nil {
		w.loads[model] = map[string]*fem.LoadSet{}
	}
	w.loads[model][ls.Name] = ls
	return nil
}

// LoadSet returns a model's named load set, or nil.
func (w *Workspace) LoadSet(model, name string) *fem.LoadSet {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.loads[model][name]
}

// LoadSetNames returns a model's load set names, sorted.
func (w *Workspace) LoadSetNames(model string) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.loads[model]))
	for k := range w.loads[model] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PutSolution stores a model's latest displacement solution.
func (w *Workspace) PutSolution(model string, s *fem.Solution) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.solutions[model] = s
}

// Solution returns a model's latest solution, or nil.
func (w *Workspace) Solution(model string) *fem.Solution {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.solutions[model]
}

// PutStresses stores a model's latest element stresses.
func (w *Workspace) PutStresses(model string, s [][]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stresses[model] = s
}

// Stresses returns a model's latest stresses, or nil.
func (w *Workspace) Stresses(model string) [][]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stresses[model]
}

// Words estimates the workspace footprint in 8-byte words: node
// coordinates, element connectivity, load entries, solutions, and
// stresses.
func (w *Workspace) Words() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var words int64
	for _, m := range w.models {
		words += int64(2 * len(m.Nodes))
		for _, e := range m.Elements {
			words += int64(len(e.AppendNodes(nil)) + 1)
		}
	}
	for _, sets := range w.loads {
		for _, ls := range sets {
			words += int64(2 * len(ls.Entries))
		}
	}
	for _, s := range w.solutions {
		words += int64(len(s.U))
	}
	for _, ss := range w.stresses {
		for _, s := range ss {
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
