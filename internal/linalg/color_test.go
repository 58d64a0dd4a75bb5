package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGreedyColoringPoissonIsRedBlack(t *testing.T) {
	m := poisson2D(6)
	c := GreedyColoring(m)
	if c.NumColors != 2 {
		t.Errorf("5-point stencil colored with %d colors, want 2 (red/black)", c.NumColors)
	}
	if err := c.Validate(m); err != nil {
		t.Fatal(err)
	}
	// Every row has exactly one color and appears once in Rows.
	count := 0
	for _, rows := range c.Rows {
		count += len(rows)
	}
	if count != m.N {
		t.Errorf("Rows lists %d of %d rows", count, m.N)
	}
}

func TestColoringValidateCatchesConflict(t *testing.T) {
	m := poisson2D(3)
	c := GreedyColoring(m)
	// Corrupt: force neighbours 0 and 1 to the same color.
	c.ColorOf[1] = c.ColorOf[0]
	if err := c.Validate(m); err == nil {
		t.Error("conflicting coloring validated")
	}
	// Wrong length rejected.
	bad := &Coloring{ColorOf: []int{0}}
	if err := bad.Validate(m); err == nil {
		t.Error("short coloring validated")
	}
	// Rows, the classes SOR sweeps, must list each row once, in its
	// color, ascending.
	for name, edit := range map[string]func(c *Coloring){
		"row missing":        func(c *Coloring) { c.Rows[0] = c.Rows[0][1:] },
		"row repeated":       func(c *Coloring) { c.Rows[0] = append(c.Rows[0], c.Rows[0][0]) },
		"row in other color": func(c *Coloring) { c.Rows[1] = append(c.Rows[1], c.Rows[0][0]) },
		"rows descending":    func(c *Coloring) { c.Rows[0][0], c.Rows[0][1] = c.Rows[0][1], c.Rows[0][0] },
		"row out of range":   func(c *Coloring) { c.Rows[0] = append(c.Rows[0], m.N) },
	} {
		c := GreedyColoring(m)
		edit(c)
		if err := c.Validate(m); err == nil {
			t.Errorf("%s: coloring validated", name)
		}
	}
}

func TestGreedyColoringDiagonalMatrixOneColor(t *testing.T) {
	m, err := NewCSRFromTriplets(4, []Triplet{
		{0, 0, 1}, {1, 1, 1}, {2, 2, 1}, {3, 3, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := GreedyColoring(m)
	if c.NumColors != 1 {
		t.Errorf("decoupled rows colored with %d colors", c.NumColors)
	}
}

func TestMultiColorSORSolvesPoisson(t *testing.T) {
	m := poisson2D(5)
	want := NewVector(m.N)
	rng := rand.New(rand.NewSource(9))
	for i := range want {
		want[i] = rng.Float64()*2 - 1
	}
	b := m.MulVec(want, nil, nil)
	c := GreedyColoring(m)
	opts := DefaultIterOpts(m.N)
	opts.Tol = 1e-9
	opts.MaxIter = 20000
	st := &Stats{}
	x, iters, err := multiColorSOR(m, b, c, opts, st)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d > 1e-6 {
		t.Errorf("multi-colour SOR error %g after %d iters", d, iters)
	}
	if st.Flops == 0 || st.Iterations != iters {
		t.Errorf("stats %+v", *st)
	}
}

func TestMultiColorSORConvergesLikeLexicographicSOR(t *testing.T) {
	// Red/black ordering changes the iteration but not the limit; the
	// iteration counts stay within a small factor for the Poisson
	// problem.
	m := poisson2D(6)
	b := NewVector(m.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	opts := DefaultIterOpts(m.N)
	opts.Tol = 1e-8
	opts.MaxIter = 50000
	_, lexIters, err := seqSOR(m, b, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := GreedyColoring(m)
	xRB, rbIters, err := multiColorSOR(m, b, c, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	xLex, _, _ := seqSOR(m, b, opts, nil)
	if d := MaxAbsDiff(xRB, xLex); d > 1e-6 {
		t.Errorf("orderings disagree by %g", d)
	}
	if rbIters > 3*lexIters {
		t.Errorf("red/black took %d iters vs lexicographic %d", rbIters, lexIters)
	}
}

func TestMultiColorSORErrors(t *testing.T) {
	m := poisson2D(3)
	b := NewVector(m.N)
	b.Fill(1)
	c := GreedyColoring(m)
	opts := DefaultIterOpts(m.N)
	opts.Omega = 2.5
	if _, _, err := multiColorSOR(m, b, c, opts, nil); err == nil {
		t.Error("bad omega accepted")
	}
	// Zero diagonal.
	zd, _ := NewCSRFromTriplets(2, []Triplet{{0, 1, 1}, {1, 0, 1}})
	czd := GreedyColoring(zd)
	if _, _, err := multiColorSOR(zd, Vector{1, 1}, czd, DefaultIterOpts(2), nil); err == nil {
		t.Error("zero diagonal accepted")
	}
	// Budget exhaustion.
	opts = DefaultIterOpts(m.N)
	opts.MaxIter = 1
	opts.Tol = 1e-15
	if _, _, err := multiColorSOR(m, b, c, opts, nil); err == nil {
		t.Error("budget exhaustion not reported")
	}
	// Zero RHS short-circuits.
	if x, iters, err := multiColorSOR(m, NewVector(m.N), c, DefaultIterOpts(m.N), nil); err != nil || iters != 0 || NormInf(x) != 0 {
		t.Error("zero rhs mishandled")
	}
}

// Property: greedy coloring of random sparse SPD-patterned matrices is
// always valid and uses at most maxDegree+1 colors.
func TestQuickGreedyColoringValid(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw)%20 + 2
		rng := rand.New(rand.NewSource(seed))
		var ts []Triplet
		for i := 0; i < n; i++ {
			ts = append(ts, Triplet{i, i, 4})
		}
		// Random symmetric off-diagonals.
		for e := 0; e < 2*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			ts = append(ts, Triplet{i, j, -1}, Triplet{j, i, -1})
		}
		m, err := NewCSRFromTriplets(n, ts)
		if err != nil {
			return false
		}
		c := GreedyColoring(m)
		if c.Validate(m) != nil {
			return false
		}
		maxDeg := 0
		for i := 0; i < n; i++ {
			if d := m.RowNNZ(i) - 1; d > maxDeg {
				maxDeg = d
			}
		}
		return c.NumColors <= maxDeg+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
