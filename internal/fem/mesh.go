package fem

import (
	"fmt"
	"math/rand"
)

// RectGridOpts parameterises the rectangular plane-stress grid generator
// — the AUVM "generate grid" operation.
type RectGridOpts struct {
	// NX, NY count the cells in each direction; the grid has
	// (NX+1)*(NY+1) nodes and 2*NX*NY CST elements.
	NX, NY int
	// W, H give the physical extent.
	W, H float64
	// Mat is applied to every element.
	Mat Material
	// ClampLeft fixes both freedoms of every node on the x=0 edge (the
	// classical cantilever root).
	ClampLeft bool
	// Jitter perturbs interior node positions by up to Jitter times
	// the cell size, producing the irregular meshes that give rise to
	// irregular communication patterns.  0 disables; requires Seed.
	Jitter float64
	// Seed drives the jitter deterministically.
	Seed int64
}

// RectGrid builds a rectangular plane-stress model: NX×NY cells, each
// split into two counterclockwise CSTs.  The mesh is allocated in three
// slices — nodes, elements, and one backing array for the CSTs — whose
// node indices are in range by construction.
func RectGrid(name string, o RectGridOpts) (*Model, error) {
	if o.NX < 1 || o.NY < 1 {
		return nil, fmt.Errorf("%w: grid %dx%d", ErrModel, o.NX, o.NY)
	}
	if o.W <= 0 || o.H <= 0 {
		return nil, fmt.Errorf("%w: grid extent %gx%g", ErrModel, o.W, o.H)
	}
	m := &Model{
		Name:     name,
		Nodes:    make([]NodeCoord, 0, (o.NX+1)*(o.NY+1)),
		Elements: make([]Element, 0, 2*o.NX*o.NY),
	}
	dx, dy := o.W/float64(o.NX), o.H/float64(o.NY)
	var rng *rand.Rand
	if o.Jitter > 0 {
		rng = rand.New(rand.NewSource(o.Seed))
	}
	id := func(i, j int) int { return i*(o.NY+1) + j }
	for i := 0; i <= o.NX; i++ {
		for j := 0; j <= o.NY; j++ {
			x, y := float64(i)*dx, float64(j)*dy
			if o.Jitter > 0 && i > 0 && i < o.NX && j > 0 && j < o.NY {
				x += (rng.Float64()*2 - 1) * o.Jitter * dx
				y += (rng.Float64()*2 - 1) * o.Jitter * dy
			}
			m.AddNode(x, y)
		}
	}
	csts := make([]CST, 0, 2*o.NX*o.NY)
	for i := 0; i < o.NX; i++ {
		for j := 0; j < o.NY; j++ {
			n00 := id(i, j)
			n10 := id(i+1, j)
			n01 := id(i, j+1)
			n11 := id(i+1, j+1)
			csts = append(csts,
				CST{N1: n00, N2: n10, N3: n11, Mat: o.Mat},
				CST{N1: n00, N2: n11, N3: n01, Mat: o.Mat})
			m.Elements = append(m.Elements, &csts[len(csts)-2], &csts[len(csts)-1])
		}
	}
	if o.ClampLeft {
		m.GrowFixed(DOFPerNode * (o.NY + 1))
		for j := 0; j <= o.NY; j++ {
			if err := m.FixNode(id(0, j)); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// GridNodeID returns the node index of grid position (i,j) for a model
// built by RectGrid with NY cells vertically.
func GridNodeID(ny, i, j int) int { return i*(ny+1) + j }

// EndLoad builds a load set applying a total force (fx, fy) spread evenly
// over the right edge (x = W) nodes of a RectGrid model.
func EndLoad(name string, o RectGridOpts, fx, fy float64) *LoadSet {
	n := o.NY + 1
	ls := &LoadSet{Name: name}
	for j := 0; j <= o.NY; j++ {
		node := GridNodeID(o.NY, o.NX, j)
		ls.Entries = append(ls.Entries,
			LoadEntry{DOF: DOF(node, 0), Value: fx / float64(n)},
			LoadEntry{DOF: DOF(node, 1), Value: fy / float64(n)},
		)
	}
	return ls
}

// CantileverTruss builds a classic triangulated cantilever truss of
// `bays` bays: two chords of nodes connected by verticals and diagonals,
// pinned at the left end.  A standard small-structures workload with
// closed-form member forces for single bays.
func CantileverTruss(name string, bays int, bayLen, height float64, mat Material) (*Model, error) {
	if bays < 1 {
		return nil, fmt.Errorf("%w: truss with %d bays", ErrModel, bays)
	}
	m := NewModel(name)
	// Bottom chord nodes 0..bays, top chord nodes bays+1..2*bays+1.
	for i := 0; i <= bays; i++ {
		m.AddNode(float64(i)*bayLen, 0)
	}
	for i := 0; i <= bays; i++ {
		m.AddNode(float64(i)*bayLen, height)
	}
	bot := func(i int) int { return i }
	top := func(i int) int { return bays + 1 + i }
	add := func(a, b int) error {
		return m.AddElement(&Bar{N1: a, N2: b, Mat: mat})
	}
	for i := 0; i < bays; i++ {
		if err := add(bot(i), bot(i+1)); err != nil {
			return nil, err
		}
		if err := add(top(i), top(i+1)); err != nil {
			return nil, err
		}
		if err := add(bot(i), top(i+1)); err != nil { // diagonal
			return nil, err
		}
		if err := add(bot(i+1), top(i+1)); err != nil { // vertical
			return nil, err
		}
	}
	if err := add(bot(0), top(0)); err != nil {
		return nil, err
	}
	// Pin the left end: both chord root nodes.
	if err := m.FixNode(bot(0)); err != nil {
		return nil, err
	}
	if err := m.FixNode(top(0)); err != nil {
		return nil, err
	}
	return m, nil
}

// UniaxialBar builds the textbook verification model: a chain of n bar
// elements along the x axis, clamped at node 0, so that a tip load P
// yields the exact solution u(i) = P·x_i/(E·A).
func UniaxialBar(name string, n int, length float64, mat Material) (*Model, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: bar chain of %d", ErrModel, n)
	}
	m := NewModel(name)
	dx := length / float64(n)
	for i := 0; i <= n; i++ {
		m.AddNode(float64(i)*dx, 0)
	}
	for i := 0; i < n; i++ {
		if err := m.AddElement(&Bar{N1: i, N2: i + 1, Mat: mat}); err != nil {
			return nil, err
		}
	}
	if err := m.FixNode(0); err != nil {
		return nil, err
	}
	// The y freedoms carry no stiffness for a horizontal chain; fix
	// them all to keep the reduced system positive definite.
	for i := 1; i <= n; i++ {
		if err := m.FixDOF(DOF(i, 1)); err != nil {
			return nil, err
		}
	}
	return m, nil
}
