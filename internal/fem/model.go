// Package fem implements the finite element substrate of the FEM-2
// reproduction: the structure/substructure models, grid descriptions,
// node/element descriptions, load sets, displacement solutions, and
// element stresses that the application user's virtual machine operates
// on.
//
// The element library matches the structural-analysis workloads the
// Finite Element Machine targeted: 2D bar (truss) elements and constant
// strain triangles in plane stress.  Assembly produces the symmetric
// positive definite systems the paper's "solution of a particular system
// of simultaneous equations" parallelism level refers to.
package fem

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// DOFPerNode is the planar degrees of freedom per node (u_x, u_y).
const DOFPerNode = 2

// ErrModel is the base error for structurally invalid models.
var ErrModel = errors.New("fem: invalid model")

// NodeCoord is one grid node's position.
type NodeCoord struct {
	X, Y float64
}

// Material carries the element material/section properties: Young's
// modulus E, Poisson ratio Nu, plate thickness T (CST), and bar
// cross-section area A.
type Material struct {
	E, Nu, T, A float64
}

// Steel returns a typical structural steel in consistent units
// (N, mm): E = 200 GPa = 200000 N/mm², ν = 0.3.
func Steel() Material { return Material{E: 200000, Nu: 0.3, T: 10, A: 100} }

// Element is one finite element: it knows its connectivity, its local
// stiffness matrix, and how to recover stresses from nodal displacements.
// The set is closed — *Bar and *CST, the elements the Finite Element
// Machine targeted, are the implementations, and every codec refuses any
// other Kind — so each capability has one allocation-free form.
type Element interface {
	// Kind returns the element type name ("bar", "cst").
	Kind() string
	// AppendNodes appends the global node indices, element-local order,
	// to dst.
	AppendNodes(dst []int) []int
	// StiffnessInto writes the element stiffness matrix in global
	// coordinates into ke, of order DOFPerNode × the node count.
	StiffnessInto(m *Model, ke *linalg.Dense) error
	// AppendStress appends the element stress components recovered from
	// the global displacement vector to dst.
	AppendStress(m *Model, u linalg.Vector, dst []float64) ([]float64, error)
}

// LoadEntry applies a force value to one global degree of freedom.
type LoadEntry struct {
	DOF   int
	Value float64
}

// LoadSet is a named collection of applied loads — the AUVM "load set"
// data object.
type LoadSet struct {
	Name    string
	Entries []LoadEntry
}

// Model is the AUVM "structure/substructure model": grid, elements, and
// boundary conditions.  Load sets are kept separately so one model can be
// solved for many load sets.
type Model struct {
	// Name identifies the model in the database.
	Name string
	// Nodes is the grid description.
	Nodes []NodeCoord
	// Elements is the element description list.
	Elements []Element

	// fixed is the constrained dofs, ascending and without repeats.  It
	// may hold dofs past NumDOF: truncating Nodes leaves the fixes of the
	// nodes it dropped behind, and Validate refuses them.
	fixed []int
	// retained is everything a re-solve reuses; see retainedSolve.
	retained struct {
		mu sync.Mutex
		retainedSolve
	}
}

// retainedSolve is a model's solve state — built by its first solve, or
// taken over whole from the model it replaced (AdoptAssembly) — and
// reused by every later solve: the symbolic assembly for as long as the
// topology holds, the assembled values for as long as the model reads
// back the inputs they were assembled from, and one DirectPlan per direct
// backend for as long as the pattern holds, its factor for as long as the
// values do.  The mutex beside it also guards the workspace's shared
// value buffer: a solve holds it from re-assembly until its last read of
// K.
type retainedSolve struct {
	ws *Workspace
	// factors is created on first use (factorCache) and is a pointer so
	// the hand-over can move it.
	factors *linalg.FactorCache
	// reg is the registry the counters below — and the factor cache's —
	// were resolved from; nil, and the counters no-op sinks, until
	// Instrument.  symbolic and reused count solves that built a symbolic
	// phase and solves that skipped one, unchanged those of the latter
	// that skipped the numeric phase too.
	reg                         *obs.Registry
	symbolic, reused, unchanged *obs.Counter
}

// factorCache returns the retained factor cache, creating it on first
// use.  The caller holds the retained mutex.
func (r *retainedSolve) factorCache() *linalg.FactorCache {
	if r.factors == nil {
		r.factors = &linalg.FactorCache{}
	}
	return r.factors
}

// assembleRetained assembles m through the retained workspace, doing
// only what the model's edits since the last solve require.  One walk
// (Workspace.walk) compares m with the workspace: the symbolic phase runs
// when there is no workspace yet or the walk finds another topology, and
// the numeric pass runs unless the walk also finds every used node's
// coordinates and every element's kind and Material as the last
// recording pass read them — which proves each element stiffness is the
// one already summed into K.  Either way the workspace's pass token then
// names the values in K, and the factor cache reuses a factor on that
// proof alone.  The caller holds m.retained.mu, and keeps
// holding it while it reads the returned K.
func (m *Model) assembleRetained() (*Assembled, error) {
	r := &m.retained
	if r.ws != nil {
		topo, same := r.ws.walk(m)
		if topo {
			r.reused.Inc()
			if same {
				r.unchanged.Inc()
				return r.ws.asm, nil
			}
			return r.ws.assemble(true)
		}
	}
	r.ws = nil
	ws, err := NewWorkspace(m)
	if err != nil {
		return nil, err
	}
	r.symbolic.Inc()
	r.ws = ws
	return ws.assemble(true)
}

// NewModel returns an empty model.
func NewModel(name string) *Model {
	return &Model{Name: name}
}

// AddNode appends a grid node and returns its index.
func (m *Model) AddNode(x, y float64) int {
	m.Nodes = append(m.Nodes, NodeCoord{X: x, Y: y})
	return len(m.Nodes) - 1
}

// AddElement appends an element after validating its connectivity.
func (m *Model) AddElement(e Element) error {
	var err error
	switch e := e.(type) {
	case *CST:
		err = m.checkNodes(e.N1, e.N2, e.N3)
	case *Bar:
		err = m.checkNodes(e.N1, e.N2)
	default:
		err = m.checkNodes(e.AppendNodes(nil)...)
	}
	if err != nil {
		return err
	}
	m.Elements = append(m.Elements, e)
	return nil
}

// checkNodes refuses the first node id the model does not have.
func (m *Model) checkNodes(ids ...int) error {
	for _, n := range ids {
		if n < 0 || n >= len(m.Nodes) {
			return fmt.Errorf("%w: element references node %d of %d", ErrModel, n, len(m.Nodes))
		}
	}
	return nil
}

// Factors returns the model's direct-solve factor cache: one retained
// DirectPlan per direct backend, so repeated solves of an unchanged
// model reuse the factorisation (every direct Solve goes through it).
// Nothing tells a model it was edited, so every solve checks instead,
// in one walk over the model (see assembleRetained): the topology (the
// symbolic assembly is rebuilt when it moved), then each used node's
// coordinates and each element's kind and Material, bit for bit against
// the record the retained matrix was assembled from (the numeric
// assembly is skipped only when all are identical).  The factor is
// chained to that proof: each recording pass leaves a token no other
// pass shares, a factor remembers the token of the values it was
// computed from, and only a solve that presents the same token rides
// the factor; any other call of the cache factors afresh.  Mutating the
// model — through its methods or its exported fields — therefore always
// triggers a re-assembly and an in-place refactor on the next solve
// rather than a stale answer.  The model is
// the cache's only owner: it lives with the Model object and follows the
// name to a replacement by AdoptAssembly, together with the assembly
// under it (so the plan's pattern check stays a pointer compare); two
// Model objects never share one.  Safe for concurrent use, but it waits
// for a Solve of m in flight.
func (m *Model) Factors() *linalg.FactorCache {
	m.retained.mu.Lock()
	defer m.retained.mu.Unlock()
	return m.retained.factorCache()
}

// AdoptAssembly moves prev's retained solve state — assembly, factor
// cache and their instrumentation, as one unit — to m, the model about
// to replace it under the same name, so regenerating or retrieving an
// unchanged topology rebuilds neither the sparsity pattern nor the
// DirectPlan, and one with unchanged values re-evaluates and refactors
// nothing.  It is a move, never a share: prev is left with none.
// Nothing is trusted — m's next solve still walks m itself, rebuilds
// when the topology differs and re-assembles when any coordinate or
// material differs from the record; the recorded pass's token, and with
// it the factor's, moves along only because it still names the values
// in the moved buffer.  It never
// blocks: when a solve of either model holds its state, or m already has
// an assembly, m is left to build its own.
func (m *Model) AdoptAssembly(prev *Model) {
	if prev == m || !prev.retained.mu.TryLock() {
		return
	}
	st := prev.retained.retainedSolve
	prev.retained.retainedSolve = retainedSolve{}
	prev.retained.mu.Unlock()
	if (st.ws == nil && st.factors == nil) || !m.retained.mu.TryLock() {
		return
	}
	if m.retained.ws == nil {
		if st.ws != nil {
			// Rebound here, so the retained workspace always evaluates the
			// model that holds it and prev can be collected.
			st.ws.m = m
		}
		m.retained.retainedSolve = st
	}
	m.retained.mu.Unlock()
}

// Instrument routes the retained solve state's counts into reg's
// assemble.* and factor.* families: solves that built a symbolic phase,
// solves that reused one, the reusing solves that found the values
// unchanged and skipped the numeric phase too, and the factor cache's
// hits, misses, refactors and refactorisation flops.  The handles are
// resolved once per model and registry and move with the state, so
// calling it before every solve costs a pointer compare.  A nil reg
// reverts to no-op sinks.
func (m *Model) Instrument(reg *obs.Registry) {
	r := &m.retained
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reg == reg {
		return
	}
	r.reg = reg
	r.symbolic, r.reused, r.unchanged = reg.Counter(obs.AssembleSymbolic), reg.Counter(obs.AssembleReused), reg.Counter(obs.AssembleUnchanged)
	r.factorCache().Instrument(reg.Counter(obs.FactorHits), reg.Counter(obs.FactorMisses), reg.Counter(obs.FactorRefactors), reg.Counter(obs.FactorFlops))
}

// NumDOF returns the total degree-of-freedom count.
func (m *Model) NumDOF() int { return DOFPerNode * len(m.Nodes) }

// DOF returns the global index of node n's d'th local freedom.
func DOF(n, d int) int { return DOFPerNode*n + d }

// FixDOF constrains one degree of freedom to zero displacement.  Dofs
// fixed in ascending order are appended; any other is inserted in its
// place, and one fixed already is left alone.
func (m *Model) FixDOF(dof int) error {
	if dof < 0 || dof >= m.NumDOF() {
		return fmt.Errorf("%w: fix dof %d of %d", ErrModel, dof, m.NumDOF())
	}
	if n := len(m.fixed); n == 0 || m.fixed[n-1] < dof {
		m.fixed = append(m.fixed, dof)
	} else if i, found := slices.BinarySearch(m.fixed, dof); !found {
		m.fixed = slices.Insert(m.fixed, i, dof)
	}
	return nil
}

// GrowFixed makes room for n more fixed dofs, so that many FixDOF calls
// in ascending order allocate nothing: a reader that knows the count
// before it fixes (the record decoder) sizes the list once, as RectGrid
// does.
func (m *Model) GrowFixed(n int) { m.fixed = slices.Grow(m.fixed, n) }

// FixNode constrains both freedoms of a node (a pin support).
func (m *Model) FixNode(n int) error {
	if err := m.FixDOF(DOF(n, 0)); err != nil {
		return err
	}
	return m.FixDOF(DOF(n, 1))
}

// Fixed reports whether a dof is constrained.
func (m *Model) Fixed(dof int) bool {
	_, found := slices.BinarySearch(m.fixed, dof)
	return found
}

// FixedDOFs returns the constrained dofs of the model's nodes, ascending.
// The slice is the model's own: the caller reads it and does not keep it
// past the model's next FixDOF.
func (m *Model) FixedDOFs() []int {
	n, _ := slices.BinarySearch(m.fixed, m.NumDOF())
	return m.fixed[:n]
}

// NumFixed returns the number of constrained freedoms.
func (m *Model) NumFixed() int { return len(m.fixed) }

// FreeDOFs returns the unconstrained global dof indices in ascending
// order, plus the inverse map from global dof to reduced index (-1 for
// fixed).
func (m *Model) FreeDOFs() (free []int, index []int) {
	n := m.NumDOF()
	index = make([]int, n)
	fixed := m.FixedDOFs()
	for _, d := range fixed {
		index[d] = -1
	}
	free = make([]int, 0, n-len(fixed))
	for d := range index {
		if index[d] == 0 {
			index[d] = len(free)
			free = append(free, d)
		}
	}
	return free, index
}

// Validate checks the model is solvable: nodes exist, elements exist,
// every fixed dof belongs to a node (truncating Nodes leaves the fixes of
// the nodes it dropped behind), and at least three freedoms are fixed
// (rigid body modes removed in 2D).
func (m *Model) Validate() error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("%w: no nodes", ErrModel)
	}
	if len(m.Elements) == 0 {
		return fmt.Errorf("%w: no elements", ErrModel)
	}
	if n, fixed := m.NumDOF(), m.FixedDOFs(); len(fixed) < len(m.fixed) {
		return fmt.Errorf("%w: fixed dof %d of %d (its node is gone)", ErrModel, m.fixed[len(fixed)], n)
	}
	if len(m.fixed) < 3 {
		return fmt.Errorf("%w: only %d constrained freedoms; 2D statics needs >= 3", ErrModel, len(m.fixed))
	}
	return nil
}

// CheckLoad refuses a load on a dof the model does not have.
func (m *Model) CheckLoad(dof int) error {
	if dof < 0 || dof >= m.NumDOF() {
		return fmt.Errorf("%w: load on dof %d of %d", ErrModel, dof, m.NumDOF())
	}
	return nil
}

// RHS builds the load vector over free dofs for a load set, using the
// dof→reduced index map from FreeDOFs.
func (m *Model) RHS(ls *LoadSet, index []int, nfree int) (linalg.Vector, error) {
	b := linalg.NewVector(nfree)
	if err := m.rhsInto(ls, index, b); err != nil {
		return nil, err
	}
	return b, nil
}

// rhsInto is RHS written over b, a vector of the reduced order.
func (m *Model) rhsInto(ls *LoadSet, index []int, b linalg.Vector) error {
	clear(b)
	for _, e := range ls.Entries {
		if err := m.CheckLoad(e.DOF); err != nil {
			return err
		}
		if idx := index[e.DOF]; idx >= 0 {
			b[idx] += e.Value
		}
		// Loads on fixed dofs go straight into the reactions; they
		// do not enter the reduced system.
	}
	return nil
}
