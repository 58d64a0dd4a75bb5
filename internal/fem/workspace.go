package fem

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/linalg"
)

// Workspace is the symbolic half of direct-stiffness assembly, retained
// across solves: the reduced sparsity Pattern of the mesh topology and a
// per-element scatter map from local (i,j) stiffness entries to flat
// positions in the CSR value array.  Building it costs one sort of the
// element connectivity; after that every numeric re-assembly —
// new load step, changed node coordinates, another backend row of an
// experiment table — is a scatter-add that allocates nothing.
//
// A workspace is bound to the topology it was built from: the dof
// count, constraint set, element count, and every element's order and
// connectivity (node coordinates and materials may change — they only
// affect values).  Assemble refuses to scatter through a stale map.
// Assemble returns an Assembled whose K shares the workspace's value
// buffer, so it is valid until the next Assemble call on the same
// workspace; callers that need snapshots keep one workspace per
// concurrent system.  Workspace methods are not safe for concurrent use.
type Workspace struct {
	// m is the model Assemble evaluates: the one NewWorkspace was given,
	// or the replacement Model.AdoptAssembly handed the workspace to.
	m     *Model
	free  []int
	index []int
	pat   *linalg.Pattern
	asm   *Assembled
	// scat maps each element's dense-local (i*nd+j) entries, element
	// after element, to their flat indices in K.Val, -1 where either dof
	// is fixed; element e has ndof[e] dofs, so ndof[e]² entries.
	scat []int32
	ndof []int
	// conn is the connectivity the maps were built from, element after
	// element — what walk compares a model against.
	conn []int32
	// used lists, ascending, every node some element uses: the nodes
	// whose coordinates a numeric pass reads (see resetRecord).
	used []int32
	// nodes is the connectivity scratch of walk.
	nodes []int
	// scratch is the element-stiffness scratch of the numeric phase, and
	// solve the reduced vectors of the retained solves through it.
	scratch stiffScratch
	solve   solveScratch
	// flops is the scatter-add count of one numeric pass: the scatter
	// entries with both dofs free, fixed by the topology.
	flops int64

	// The record of the values K.Val was assembled from.  pass is zeroed
	// before any write to the value buffer and set, to a token no other
	// numeric pass of any workspace shares, only by a complete, error-free
	// recording pass.  While it is non-zero, that pass read coords[i] for
	// node used[i], and element e was of kind kinds[e] with material
	// mats[e]; an element of another type is recorded as kindOther alone.
	// nan records a NaN among the recorded values: it matches nothing,
	// itself included, so such a record proves nothing.  Looked for once
	// per recording pass, which keeps walk's compare one integer compare a
	// value.
	pass   uint64
	nan    bool
	coords []NodeCoord
	kinds  []elemKind
	mats   []Material
}

// numericPasses hands out the tokens of recording passes: one counter for
// every workspace, so a token names one pass of one value buffer.
var numericPasses atomic.Uint64

// elemKind is an element's concrete type as the record keeps it.
type elemKind uint8

const (
	kindOther elemKind = iota
	kindBar
	kindCST
)

// stiffScratch reuses one stiffness matrix per element order, and keeps
// the last few CST stiffnesses it evaluated keyed by their whole input
// (cstShape), so a mesh of a few distinct triangles — a regular grid has
// two — evaluates each once.  An entry never goes stale: a hit is the
// stiffness an evaluation of the same bits would write.  The zero value
// is ready to use.
type stiffScratch struct {
	ke map[int]*linalg.Dense
	// cst[:ncst] is a ring of the last CST stiffnesses evaluated; the
	// next miss is stored at cst[next], over the oldest once it is full.
	cst        [4]cstMemo
	ncst, next int
}

// cstMemo is one memoised CST stiffness and the shape it was evaluated
// from.
type cstMemo struct {
	shape cstShape
	ke    *linalg.Dense
}

// stiffness evaluates e's stiffness, of order nd, into a scratch
// matrix: the result is only valid until the next call.
func (sc *stiffScratch) stiffness(m *Model, e Element, nd int) (*linalg.Dense, error) {
	if t, ok := e.(*CST); ok {
		return sc.cstStiffness(m, t)
	}
	ke := sc.ke[nd]
	if ke == nil {
		if sc.ke == nil {
			sc.ke = map[int]*linalg.Dense{}
		}
		ke = linalg.NewDense(nd, nd)
		sc.ke[nd] = ke
	}
	if err := e.StiffnessInto(m, ke); err != nil {
		return nil, err
	}
	return ke, nil
}

// cstStiffness is stiffness for a CST: the entries are scanned newest
// first, a hit is returned as it is, and a miss is evaluated into the
// oldest entry's matrix (or a new one while the ring fills) and becomes
// the newest.  A degenerate triangle, or a material that cannot give a
// positive-definite stiffness, stores nothing, so only a miss checks the
// material.
func (sc *stiffScratch) cstStiffness(m *Model, t *CST) (*linalg.Dense, error) {
	var s cstShape
	t.shape(m, &s)
	const n = len(sc.cst)
	for k, i := 0, sc.next; k < sc.ncst; k++ {
		i = (i + n - 1) % n
		if ent := &sc.cst[i]; ent.shape.same(&s) {
			return ent.ke, nil
		}
	}
	if err := t.unusable(); err != nil {
		return nil, err
	}
	ent := &sc.cst[sc.next]
	if ent.ke == nil {
		ent.ke = linalg.NewDense(6, 6)
	}
	// A degenerate shape leaves ent.ke untouched, so an entry there
	// stays valid.
	if !s.stiffnessInto(ent.ke) {
		return nil, t.degenerate()
	}
	ent.shape = s
	sc.next, sc.ncst = (sc.next+1)%n, min(sc.ncst+1, n)
	return ent.ke, nil
}

// NewWorkspace runs the symbolic assembly phase: it validates the model,
// reduces out the fixed dofs, and builds the CSR sparsity pattern of the
// free-dof system with linalg.NewPattern, which writes where every
// element stiffness entry scatters straight into the workspace's map.
// No element stiffness is evaluated — the symbolic phase depends on
// topology alone.  A first pass over the elements only counts, so every
// array is allocated once at its final size: a session's first solve, a
// topology change and every one-shot Assemble pay this phase in full.
func NewWorkspace(m *Model) (*Workspace, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	free, index := m.FreeDOFs()
	ne := len(m.Elements)
	ws := &Workspace{m: m, free: free, index: index, ndof: make([]int, ne)}
	nconn, nscat, ncoord := 0, 0, 0
	for ei, e := range m.Elements {
		ws.nodes = e.AppendNodes(ws.nodes[:0])
		nfree := 0
		for _, n := range ws.nodes {
			if n < 0 || n >= len(m.Nodes) {
				return nil, fmt.Errorf("%w: element %d references node %d of %d", ErrModel, ei, n, len(m.Nodes))
			}
			for d := 0; d < DOFPerNode; d++ {
				if index[DOF(n, d)] >= 0 {
					nfree++
				}
			}
		}
		nd := DOFPerNode * len(ws.nodes)
		ws.ndof[ei] = nd
		nscat += nd * nd
		nconn += len(ws.nodes)
		ncoord += nfree * nfree
	}
	ws.conn = make([]int32, 0, nconn)
	ws.scat = make([]int32, nscat)
	// The coordinates are laid out as scat is: scat[t] is where
	// (rows[t], cols[t]) scatters, and a pair with a fixed dof is a hole,
	// -1 in scat, that NewPattern leaves as it is.
	rows, cols := make([]int32, len(ws.scat)), make([]int32, len(ws.scat))
	var reduced []int32
	t := 0
	for _, e := range m.Elements {
		ws.nodes = e.AppendNodes(ws.nodes[:0])
		// reduced holds the element's dofs as reduced indices, local order.
		reduced = reduced[:0]
		for _, n := range ws.nodes {
			ws.conn = append(ws.conn, int32(n))
			for d := 0; d < DOFPerNode; d++ {
				reduced = append(reduced, int32(index[DOF(n, d)]))
			}
		}
		for _, ri := range reduced {
			for _, rj := range reduced {
				if ri < 0 || rj < 0 {
					ws.scat[t] = -1
				} else {
					rows[t], cols[t] = ri, rj
				}
				t++
			}
		}
	}
	pat, err := linalg.NewPattern(len(free), rows, cols, ws.scat)
	if err != nil {
		return nil, err
	}
	ws.pat = pat
	ws.flops = int64(ncoord)
	ws.asm = &Assembled{K: pat.NewCSR(), Free: free, Index: index}
	return ws, nil
}

// walk compares m with the workspace in one pass, allocating nothing.
// topo reports that m still has the topology the workspace was built
// from — dof count, constraint set, element count, and every element's
// order and connectivity — so a numeric re-assembly of m through the
// workspace's maps is sound.  same reports, in addition, that the value
// buffer holds exactly what a numeric pass over m would write: the last
// pass was recorded in full and read no NaN, every node an element uses
// has the recorded coordinates, and every element is a *Bar or a *CST of
// the recorded kind and Material.  Those are everything a Bar's or a
// CST's StiffnessInto reads beyond the connectivity, so a node no element
// uses is not compared, and an element of any other type is never found
// unchanged.  Values compare by bit pattern, so -0 differs from +0, and a
// NaN matches nothing.  The first value difference ends the value
// compare; the topology is still checked to the end.
func (ws *Workspace) walk(m *Model) (topo, same bool) {
	if m.NumDOF() != len(ws.index) || len(m.Elements) != len(ws.ndof) {
		return false, false
	}
	// The fixed list holds no repeats, so equal counts plus every fixed
	// dof being one the workspace eliminated means equal sets.
	if len(m.fixed) != len(ws.index)-len(ws.free) {
		return false, false
	}
	for _, d := range m.fixed {
		if d >= len(ws.index) || ws.index[d] >= 0 {
			return false, false
		}
	}
	same = ws.pass != 0 && !ws.nan
	if same {
		for i, n := range ws.used {
			p, r := &m.Nodes[n], &ws.coords[i]
			if !unchangedBits(p.X, r.X) || !unchangedBits(p.Y, r.Y) {
				same = false
				break
			}
		}
	}
	conn := ws.conn
	c := 0
	for ei, e := range m.Elements {
		switch e := e.(type) {
		case *CST:
			if ws.ndof[ei] != 3*DOFPerNode || e.N1 != int(conn[c]) || e.N2 != int(conn[c+1]) || e.N3 != int(conn[c+2]) {
				return false, false
			}
			c += 3
			same = same && ws.kinds[ei] == kindCST && sameMaterial(&e.Mat, &ws.mats[ei])
		case *Bar:
			if ws.ndof[ei] != 2*DOFPerNode || e.N1 != int(conn[c]) || e.N2 != int(conn[c+1]) {
				return false, false
			}
			c += 2
			same = same && ws.kinds[ei] == kindBar && sameMaterial(&e.Mat, &ws.mats[ei])
		default:
			ws.nodes = e.AppendNodes(ws.nodes[:0])
			if DOFPerNode*len(ws.nodes) != ws.ndof[ei] {
				return false, false
			}
			for _, n := range ws.nodes {
				if n != int(conn[c]) {
					return false, false
				}
				c++
			}
			same = false
		}
	}
	return true, same
}

// sameMaterial compares two materials field by field with unchangedBits.
func sameMaterial(a, b *Material) bool {
	return unchangedBits(a.E, b.E) && unchangedBits(a.Nu, b.Nu) && unchangedBits(a.T, b.T) && unchangedBits(a.A, b.A)
}

// unchangedBits reports whether v has rec's bit pattern; a record with a
// NaN in it is never compared (Workspace.nan).
func unchangedBits(v, rec float64) bool {
	return math.Float64bits(v) == math.Float64bits(rec)
}

// Assemble runs the numeric phase: element stiffnesses are evaluated
// (each distinct CST shape and material once; see stiffScratch) and
// scatter-added through the cached map, in element order.  The
// returned Assembled shares the workspace's value storage; see the type
// comment.
func (ws *Workspace) Assemble() (*Assembled, error) {
	if topo, _ := ws.walk(ws.m); !topo {
		return nil, fmt.Errorf("%w: topology changed since NewWorkspace (build a new workspace)", ErrModel)
	}
	return ws.assemble(false)
}

// assemble is Assemble without the topology check, for callers that have
// just run walk themselves.  With record set it leaves the record of the
// pass behind, under a new token; either way the previous token is gone
// before the buffer is touched, so a pass that fails half way cannot be
// mistaken for the recorded one.
func (ws *Workspace) assemble(record bool) (*Assembled, error) {
	ws.pass = 0
	val := ws.asm.K.Val
	for i := range val {
		val[i] = 0
	}
	if record {
		ws.resetRecord()
	}
	if err := ws.scatter(val, record); err != nil {
		return nil, err
	}
	if record {
		ws.pass = numericPasses.Add(1)
	}
	ws.asm.Stats = linalg.Stats{Flops: ws.flops}
	return ws.asm, nil
}

// scatter evaluates every element and scatters it into val.  With record
// set it also records each element's kind and material as it goes.
func (ws *Workspace) scatter(val []float64, record bool) error {
	s := ws.scat
	for ei, e := range ws.m.Elements {
		if record {
			ws.recordElement(ei, e)
		}
		nd := ws.ndof[ei]
		ke, err := ws.scratch.stiffness(ws.m, e, nd)
		if err != nil {
			return fmt.Errorf("fem: element %d: %w", ei, err)
		}
		for i := 0; i < nd; i++ {
			row := ke.Row(i)
			base := i * nd
			for j, v := range row {
				if t := s[base+j]; t >= 0 {
					val[t] += v
				}
			}
		}
		s = s[nd*nd:]
	}
	return nil
}

// recordElement records element ei for walk.
func (ws *Workspace) recordElement(ei int, e Element) {
	switch e := e.(type) {
	case *CST:
		ws.recordMaterial(ei, kindCST, e.Mat)
	case *Bar:
		ws.recordMaterial(ei, kindBar, e.Mat)
	default:
		ws.kinds[ei] = kindOther
	}
}

// recordMaterial records a *Bar's or *CST's kind and material.
func (ws *Workspace) recordMaterial(ei int, kind elemKind, mat Material) {
	ws.kinds[ei], ws.mats[ei] = kind, mat
	ws.nan = ws.nan || mat.E != mat.E || mat.Nu != mat.Nu || mat.T != mat.T || mat.A != mat.A
}

// resetRecord starts the record of a new recording pass with the
// coordinates of the used nodes.  The first one allocates the record and
// lists the used nodes, which only recording needs: a one-shot Assemble
// never pays for them.
func (ws *Workspace) resetRecord() {
	if ws.kinds == nil {
		seen := make([]bool, len(ws.m.Nodes))
		nused := 0
		for _, n := range ws.conn {
			if !seen[n] {
				seen[n] = true
				nused++
			}
		}
		ws.used = make([]int32, 0, nused)
		for n, s := range seen {
			if s {
				ws.used = append(ws.used, int32(n))
			}
		}
		ne := len(ws.ndof)
		ws.kinds = make([]elemKind, ne)
		ws.mats = make([]Material, ne)
		ws.coords = make([]NodeCoord, nused)
	}
	ws.nan = false
	for i, n := range ws.used {
		p := ws.m.Nodes[n]
		ws.coords[i] = p
		ws.nan = ws.nan || p.X != p.X || p.Y != p.Y
	}
}
