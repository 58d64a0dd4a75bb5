package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// poisson1D builds the order-n tridiagonal (2,-1) SPD system as triplets.
func poisson1D(n int) []Triplet {
	var ts []Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{i, i, 2})
		if i > 0 {
			ts = append(ts, Triplet{i, i - 1, -1})
		}
		if i < n-1 {
			ts = append(ts, Triplet{i, i + 1, -1})
		}
	}
	return ts
}

// poisson2D builds the 5-point Laplacian on an n×n interior grid.
func poisson2D(n int) *CSR {
	var ts []Triplet
	id := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ts = append(ts, Triplet{id(i, j), id(i, j), 4})
			if i > 0 {
				ts = append(ts, Triplet{id(i, j), id(i-1, j), -1})
			}
			if i < n-1 {
				ts = append(ts, Triplet{id(i, j), id(i+1, j), -1})
			}
			if j > 0 {
				ts = append(ts, Triplet{id(i, j), id(i, j-1), -1})
			}
			if j < n-1 {
				ts = append(ts, Triplet{id(i, j), id(i, j+1), -1})
			}
		}
	}
	m, err := NewCSRFromTriplets(n*n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func TestDotAxpyNorm(t *testing.T) {
	st := &Stats{}
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	if got := Dot(a, b, st); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if st.Flops != 6 {
		t.Errorf("Dot flops = %d, want 6", st.Flops)
	}
	y := b.Clone()
	Axpy(2, a, y, st)
	want := Vector{6, 9, 12}
	if MaxAbsDiff(y, want) != 0 {
		t.Errorf("Axpy = %v, want %v", y, want)
	}
	if got := Norm2(Vector{3, 4}, st); math.Abs(got-5) > 1e-15 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	if got := NormInf(Vector{-7, 3}); got != 7 {
		t.Errorf("NormInf = %g, want 7", got)
	}
}

func TestDotDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot with mismatched lengths did not panic")
		}
	}()
	Dot(Vector{1}, Vector{1, 2}, nil)
}

func TestVectorCloneIndependent(t *testing.T) {
	a := Vector{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestStatsNilAndMerge(t *testing.T) {
	var s *Stats
	s.addFlops(10) // must not panic
	s.Merge(Stats{Flops: 5})
	st := &Stats{Flops: 1, Iterations: 2}
	st.Merge(Stats{Flops: 10, Iterations: 3})
	if st.Flops != 11 || st.Iterations != 5 {
		t.Errorf("Merge = %+v", *st)
	}
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.AddAt(1, 2, 2)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %g, want 7", m.At(1, 2))
	}
	r := m.Row(1)
	if r[2] != 7 {
		t.Errorf("Row view = %v", r)
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestDenseMulVecAndMul(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	st := &Stats{}
	y := m.MulVec(Vector{1, 1}, nil, st)
	if MaxAbsDiff(y, Vector{3, 7}) != 0 {
		t.Errorf("MulVec = %v", y)
	}
	if st.Flops != 8 {
		t.Errorf("MulVec flops = %d, want 8", st.Flops)
	}
	p := m.Mul(DenseFromRows([][]float64{{0, 1}, {1, 0}}), nil)
	if p.At(0, 0) != 2 || p.At(0, 1) != 1 || p.At(1, 0) != 4 || p.At(1, 1) != 3 {
		t.Errorf("Mul result wrong: %+v", p)
	}
}

func TestDenseTransposeSymmetric(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.Transpose()
	if mt.Rows != 3 || mt.Cols != 2 || mt.At(2, 1) != 6 {
		t.Errorf("Transpose wrong: %+v", mt)
	}
	s := DenseFromRows([][]float64{{2, -1}, {-1, 2}})
	if !s.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	a := DenseFromRows([][]float64{{2, -1}, {1, 2}})
	if a.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if m.IsSymmetric(0) {
		t.Error("non-square matrix reported symmetric")
	}
}

func TestDenseSolveGauss(t *testing.T) {
	m := DenseFromRows([][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 4},
	})
	want := Vector{1, -2, 3}
	b := m.MulVec(want, nil, nil)
	x, err := m.SolveGauss(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d > 1e-12 {
		t.Errorf("SolveGauss error %g", d)
	}
}

func TestDenseSolveGaussPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	m := DenseFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := m.SolveGauss(Vector{3, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, Vector{5, 3}); d > 1e-14 {
		t.Errorf("pivot solve = %v", x)
	}
}

func TestDenseSolveGaussSingular(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := m.SolveGauss(Vector{1, 2}, nil); err == nil {
		t.Error("singular solve did not fail")
	}
}

func TestBandedAtSetSymmetry(t *testing.T) {
	b := NewBanded(4, 1)
	b.Set(1, 0, -1)
	b.Set(1, 1, 2)
	if b.At(0, 1) != -1 {
		t.Errorf("symmetric At = %g, want -1", b.At(0, 1))
	}
	if b.At(0, 3) != 0 {
		t.Errorf("outside band At = %g, want 0", b.At(0, 3))
	}
	b.AddAt(1, 1, 3)
	if b.At(1, 1) != 5 {
		t.Errorf("AddAt = %g, want 5", b.At(1, 1))
	}
}

func TestBandedSetOutsideBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set outside band did not panic")
		}
	}()
	NewBanded(5, 1).Set(4, 0, 1)
}

func TestBandedBandwidthClamped(t *testing.T) {
	b := NewBanded(3, 10)
	if b.Bandwidth != 2 {
		t.Errorf("Bandwidth = %d, want clamped 2", b.Bandwidth)
	}
}

func TestBandedMulVecMatchesDense(t *testing.T) {
	n := 8
	b := NewBanded(n, 2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		b.Set(i, i, 4+rng.Float64())
		for j := i - 2; j < i; j++ {
			if j >= 0 {
				b.Set(i, j, rng.Float64()-0.5)
			}
		}
	}
	x := NewVector(n)
	for i := range x {
		x[i] = rng.Float64()
	}
	got := b.MulVec(x, nil, nil)
	want := b.ToDense().MulVec(x, nil, nil)
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("banded MulVec differs from dense by %g", d)
	}
}

func TestBandedCholeskySolves1DPoisson(t *testing.T) {
	n := 20
	m, err := NewCSRFromTriplets(n, poisson1D(n))
	if err != nil {
		t.Fatal(err)
	}
	b := m.ToBanded()
	want := NewVector(n)
	for i := range want {
		want[i] = float64(i%5) - 2
	}
	rhs := b.MulVec(want, nil, nil)
	st := &Stats{}
	x, err := b.SolveCholesky(rhs, st)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d > 1e-10 {
		t.Errorf("Cholesky error %g", d)
	}
	if st.Flops == 0 {
		t.Error("Cholesky recorded no flops")
	}
}

// TestBandedCholeskyNotPositiveDefinite: a pivot that is negative, zero
// or NaN fails the factorisation at its row, and st is left holding the
// work done up to it in Banded's column order — the columns before the
// failing one and its pivot sum.  The envelope kernels, band plans
// included, book the row order instead (TestBandPlanFailsWhereBandedFails).
func TestBandedCholeskyNotPositiveDefinite(t *testing.T) {
	const n, w = 9, 3
	for row := 0; row < n; row++ {
		for _, bad := range []float64{-1, 0, math.NaN()} {
			b := NewBanded(n, w)
			for i := 0; i < n; i++ {
				b.Set(i, i, 8)
				for j := max(0, i-w); j < i; j++ {
					b.Set(i, j, 1/float64(1+i+j))
				}
			}
			b.Set(row, row, bad)
			st := &Stats{}
			err := b.CholeskyFactorInPlace(st)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("not positive definite at row %d ", row)) {
				t.Fatalf("pivot %g at row %d: error %v", bad, row, err)
			}
			var want int64
			for c := 0; c < row; c++ {
				want += int64(2*(c-max(0, c-w)) + 1)
				for i := c + 1; i <= min(c+w, n-1); i++ {
					want += int64(2*(c-max(0, i-w)) + 1)
				}
			}
			want += int64(2 * (row - max(0, row-w)))
			if st.Flops != want {
				t.Errorf("pivot %g at row %d: %d flops booked, want %d", bad, row, st.Flops, want)
			}
		}
	}
}

func TestCSRFromTripletsSumsDuplicates(t *testing.T) {
	m, err := NewCSRFromTriplets(2, []Triplet{
		{0, 0, 1}, {0, 0, 2}, {1, 1, 3}, {0, 1, -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 3 {
		t.Errorf("duplicate sum = %g, want 3", m.At(0, 0))
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestCSRFromTripletsKeepsExplicitZero(t *testing.T) {
	// Entries whose values cancel stay in the pattern: the sparsity
	// structure depends only on the coordinates, so a reused Pattern and
	// a from-scratch build can never disagree on NNZ.
	m, err := NewCSRFromTriplets(2, []Triplet{{0, 0, 1}, {0, 1, 1}, {0, 1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 (cancelled entry kept as explicit zero)", m.NNZ())
	}
	if m.At(0, 1) != 0 {
		t.Errorf("cancelled At = %g", m.At(0, 1))
	}
}

func TestCSRRejectsOutOfRange(t *testing.T) {
	if _, err := NewCSRFromTriplets(2, []Triplet{{2, 0, 1}}); err == nil {
		t.Error("out-of-range triplet accepted")
	}
	if _, err := NewCSRFromTriplets(2, []Triplet{{0, -1, 1}}); err == nil {
		t.Error("negative column accepted")
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	m := poisson2D(5)
	rng := rand.New(rand.NewSource(2))
	x := NewVector(m.N)
	for i := range x {
		x[i] = rng.Float64()
	}
	got := m.MulVec(x, nil, nil)
	want := m.ToDense().MulVec(x, nil, nil)
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("CSR MulVec differs from dense by %g", d)
	}
}

// refMulVec is CSR.MulVec as it was before rows went four at a time: one
// row, one sum from +0 over ascending k, at a time.  It is kept as the
// kernel's oracle.
func refMulVec(m *CSR, x, out Vector) {
	for i := 0; i < m.N; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		out[i] = s
	}
}

// firstNaNClassDiff is firstBitDiff with every NaN alike: which payload
// an addition of two NaNs keeps is the instruction's operand order, and
// Go leaves that order to the compiler.
func firstNaNClassDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) && !(math.IsNaN(v) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// finiteDraw returns a value in [-10, 10), or, one time in eight, −0.
func finiteDraw(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return math.Copysign(0, -1)
	}
	return rng.Float64()*20 - 10
}

// specialDraw returns a finiteDraw, or, one time in eight, NaN, +Inf or
// −Inf.
func specialDraw(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	}
	return finiteDraw(rng)
}

// raggedCSR returns an n×n matrix whose rows hold anywhere from no entry
// to every column, in sorted random columns, with values from draw.
func raggedCSR(rng *rand.Rand, n int, draw func(*rand.Rand) float64) *CSR {
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		var width int
		switch rng.Intn(4) {
		case 0: // empty
		case 1:
			width = min(n, 1+rng.Intn(2))
		default:
			width = rng.Intn(n + 1)
		}
		for _, j := range rng.Perm(n)[:width] {
			m.ColIdx = append(m.ColIdx, j)
		}
		sort.Ints(m.ColIdx[m.RowPtr[i]:])
		for range width {
			m.Val = append(m.Val, draw(rng))
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}

// TestCSRMulVecMatchesScalarOracle is the SpMV kernel's contract as a
// differential test: on ragged random matrices (empty rows, one-entry
// rows, rows of every width side by side) of every order mod 4, with −0
// and, in every other matrix, NaN and ±Inf in Val and in x, MulVec into
// a fresh and into a caller's vector, and MulVecRows over the whole
// range, equal the one-row loop bit for bit (NaNs as a class) and count
// 2 flops per stored entry.
func TestCSRMulVecMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 30, 31, 62, 63} {
		for rep := 0; rep < 8; rep++ {
			// Half the draws finite, where a sum taken in another order
			// shows in its rounding rather than hiding behind a NaN.
			draw := finiteDraw
			if rep%2 == 1 {
				draw = specialDraw
			}
			m := raggedCSR(rng, n, draw)
			x := NewVector(n)
			for i := range x {
				x[i] = draw(rng)
			}
			want := NewVector(n)
			refMulVec(m, x, want)
			var fresh, into, rows Stats
			rowsOut := NewVector(n)
			m.MulVecRows(x, rowsOut, 0, n, &rows)
			for name, got := range map[string]Vector{
				"fresh":      m.MulVec(x, nil, &fresh),
				"into":       m.MulVec(x, NewVector(n), &into),
				"MulVecRows": rowsOut,
			} {
				if i := firstNaNClassDiff(got, want); i >= 0 {
					t.Fatalf("n=%d rep %d: %s differs from the oracle at row %d: %v vs %v (row %v × %v)", n, rep, name, i, got[i], want[i],
						m.Val[m.RowPtr[i]:m.RowPtr[i+1]], m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]])
				}
			}
			for _, st := range []Stats{fresh, into, rows} {
				if st.Flops != int64(2*m.NNZ()) {
					t.Fatalf("n=%d: %d flops for %d stored entries", n, st.Flops, m.NNZ())
				}
			}
		}
	}
}

// TestCSRMulVecRowsPartitionEqualsWhole splits the rows at every pair of
// boundaries, most of them not multiples of 4, so the four-row blocks of
// each part fall differently than the whole's: the parts must equal the
// whole product bit for bit (NaNs as a class) and their flops sum to its.
func TestCSRMulVecRowsPartitionEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := poisson2D(4)
	x := NewVector(m.N)
	for i := range x {
		x[i] = float64(i+1) / 3
	}
	ragged := raggedCSR(rng, 23, specialDraw)
	rx := NewVector(ragged.N)
	for i := range rx {
		rx[i] = specialDraw(rng)
	}
	for _, tc := range []struct {
		m *CSR
		x Vector
	}{{m, x}, {ragged, rx}} {
		var wst Stats
		whole := tc.m.MulVec(tc.x, nil, &wst)
		for a := 0; a <= tc.m.N; a++ {
			for b := a; b <= tc.m.N; b++ {
				part := NewVector(tc.m.N)
				var st Stats
				for _, r := range [][2]int{{0, a}, {a, b}, {b, tc.m.N}} {
					tc.m.MulVecRows(tc.x, part, r[0], r[1], &st)
				}
				if i := firstNaNClassDiff(part, whole); i >= 0 {
					t.Fatalf("order %d split at %d, %d: row %d is %v, whole %v", tc.m.N, a, b, i, part[i], whole[i])
				}
				if st.Flops != wst.Flops {
					t.Fatalf("order %d split at %d, %d: %d flops, whole %d", tc.m.N, a, b, st.Flops, wst.Flops)
				}
			}
		}
	}
}

func TestCSRDiagonalSymmetryBandwidth(t *testing.T) {
	m := poisson2D(3)
	d := m.Diagonal()
	for i, v := range d {
		if v != 4 {
			t.Errorf("Diagonal[%d] = %g, want 4", i, v)
		}
	}
	if !m.IsSymmetric(0) {
		t.Error("Poisson matrix reported asymmetric")
	}
	if bw := m.Bandwidth(); bw != 3 {
		t.Errorf("Bandwidth = %d, want 3", bw)
	}
	if cols := m.RowColumns(0); len(cols) != 3 {
		t.Errorf("RowColumns(0) = %v", cols)
	}
}

func TestCSRToBandedRoundTrip(t *testing.T) {
	m := poisson2D(4)
	b := m.ToBanded()
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if b.At(i, j) != m.At(i, j) {
				t.Fatalf("ToBanded mismatch at (%d,%d): %g vs %g", i, j, b.At(i, j), m.At(i, j))
			}
		}
	}
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestQuickDotProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := Vector(raw[:n]), Vector(raw[n:2*n])
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		d1 := Dot(a, b, nil)
		d2 := Dot(b, a, nil)
		return d1 == d2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for random SPD tridiagonal systems, Cholesky solve agrees with
// Gaussian elimination on the dense expansion.
func TestQuickCholeskyMatchesGauss(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%14 + 2
		rng := rand.New(rand.NewSource(seed))
		b := NewBanded(n, 1)
		for i := 0; i < n; i++ {
			b.Set(i, i, 3+rng.Float64())
			if i > 0 {
				b.Set(i, i-1, rng.Float64()-0.5)
			}
		}
		rhs := NewVector(n)
		for i := range rhs {
			rhs[i] = rng.Float64()*2 - 1
		}
		xc, err := b.SolveCholesky(rhs, nil)
		if err != nil {
			return false
		}
		xg, err := b.ToDense().SolveGauss(rhs, nil)
		if err != nil {
			return false
		}
		return MaxAbsDiff(xc, xg) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: CSR built from shuffled triplets equals CSR from sorted ones.
func TestQuickCSRTripletOrderIrrelevant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		ts := poisson1D(n)
		shuffled := make([]Triplet, len(ts))
		copy(shuffled, ts)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		m1, err1 := NewCSRFromTriplets(n, ts)
		m2, err2 := NewCSRFromTriplets(n, shuffled)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m1.At(i, j) != m2.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
