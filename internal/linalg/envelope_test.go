package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refEnvelopeFactor is the scalar row-by-row envelope Cholesky the
// blocked kernel replaced, kept as its oracle: one entry at a time, each
// a single s -= a*b chain over ascending k, the flop counter bumped
// inside the loop.  Only the pivot test follows the kernel's (a NaN
// pivot fails).
func refEnvelopeFactor(e *Envelope, st *Stats) error {
	var flops int64
	for i := 0; i < e.N; i++ {
		fi := e.first[i]
		base := e.ptr[i]
		for j := fi; j < i; j++ {
			s := e.env[base+j-fi]
			fj := e.first[j]
			klo := fi
			if fj > klo {
				klo = fj
			}
			rj := e.ptr[j] - fj
			ri := base - fi
			for k := klo; k < j; k++ {
				s -= e.env[ri+k] * e.env[rj+k]
				flops += 2
			}
			e.env[base+j-fi] = s / e.env[e.ptr[j+1]-1]
			flops++
		}
		// Diagonal pivot.
		s := e.env[e.ptr[i+1]-1]
		for k := base; k < e.ptr[i+1]-1; k++ {
			v := e.env[k]
			s -= v * v
			flops += 2
		}
		if !(s > 0) {
			st.addFlops(flops)
			return fmt.Errorf("linalg: matrix not positive definite at row %d (pivot %g)", i, s)
		}
		e.env[e.ptr[i+1]-1] = math.Sqrt(s)
		flops++
	}
	st.addFlops(flops)
	return nil
}

// refEnvelopeSolveInto is the scalar substitution pair the kernel's
// CholeskySolveInto replaced, solving in place in y.
func refEnvelopeSolveInto(e *Envelope, y Vector, st *Stats) {
	var flops int64
	// Forward: L·y = rhs, row-oriented.
	for i := 0; i < e.N; i++ {
		fi := e.first[i]
		base := e.ptr[i] - fi
		s := y[i]
		for k := fi; k < i; k++ {
			s -= e.env[base+k] * y[k]
			flops += 2
		}
		y[i] = s / e.env[e.ptr[i+1]-1]
		flops++
	}
	// Backward: Lᵀ·x = y, column-oriented over the row-stored factor.
	for i := e.N - 1; i >= 0; i-- {
		fi := e.first[i]
		base := e.ptr[i] - fi
		x := y[i] / e.env[e.ptr[i+1]-1]
		flops++
		y[i] = x
		for k := fi; k < i; k++ {
			y[k] -= e.env[base+k] * x
			flops += 2
		}
	}
	st.addFlops(flops)
}

// firstBitDiff returns the first index where a and b differ in bit
// pattern (or in length), -1 when they are identical.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// profileString prints a row profile for a failure message, the head of
// it when the matrix is a mesh's.
func profileString(first []int) string {
	if len(first) > 64 {
		return fmt.Sprintf("n=%d, first %v…", len(first), first[:64])
	}
	return fmt.Sprintf("first %v", first)
}

// envelopeKernel is one of CholeskyFactorInPlace's three kernels, run
// directly so that each is tested whichever the host would pick.  runs
// says whether the host can run it, skip why not.
type envelopeKernel struct {
	name   string
	factor func(*Envelope, *Stats) error
	runs   bool
	skip   string
}

var envelopeKernels = []envelopeKernel{
	{"pair", (*Envelope).choleskyPairs, true, ""},
	{"panel", (*Envelope).choleskyPanel, haveAVX2, "CPU has no AVX2"},
	{"panel8", (*Envelope).choleskyPanel8, haveAVX512, "CPU has no AVX-512"},
}

// hostBodies names the factor kernels and the solve bodies the host runs
// and those it skips, for a test's log: a host without AVX-512 or AVX2
// then shows what it left out.
func hostBodies() string {
	var ran, skipped []string
	for _, k := range envelopeKernels {
		if k.runs {
			ran = append(ran, k.name)
		} else {
			skipped = append(skipped, k.name+" ("+k.skip+")")
		}
	}
	for _, b := range solveBodies {
		if b.runs() {
			ran = append(ran, "solve "+b.name)
		} else {
			skipped = append(skipped, "solve "+b.name+" (CPU has no AVX2)")
		}
	}
	if len(skipped) == 0 {
		skipped = []string{"none"}
	}
	return "bodies run: " + strings.Join(ran, ", ") + "; skipped: " + strings.Join(skipped, ", ")
}

// forEachKernel runs fn as one subtest per kernel, named after it; run
// by a top-level test it logs hostBodies, which a test running it in
// subtests logs itself.
func forEachKernel(t *testing.T, fn func(t *testing.T, k envelopeKernel)) {
	t.Helper()
	if !strings.Contains(t.Name(), "/") {
		t.Log(hostBodies())
	}
	for _, k := range envelopeKernels {
		t.Run(k.name, func(t *testing.T) {
			if !k.runs {
				t.Skip(k.skip)
			}
			fn(t, k)
		})
	}
}

// solveBody is one of CholeskySolveInto's two bodies of its
// shared-column loops, run directly so that each is tested whichever the
// host would pick.
type solveBody struct {
	name  string
	lanes bool
}

var solveBodies = []solveBody{{"go", false}, {"avx2", true}}

// runs reports whether the host can run the body.
func (b solveBody) runs() bool { return !b.lanes || haveAVX2 }

// solve is CholeskySolveInto by body b.
func (b solveBody) solve(e *Envelope, rhs, out Vector, st *Stats) Vector {
	return e.solveInto(rhs, out, st, b.lanes)
}

// checkSolveBodies solves got with every body the host runs — into a
// fresh vector, a caller's vector and in place — and demands ref's bits
// and wantFlops; oracle names ref in a failure.
func checkSolveBodies(t testing.TB, got *Envelope, rhs, ref Vector, wantFlops int64, oracle string) {
	t.Helper()
	for _, b := range solveBodies {
		if !b.runs() {
			continue
		}
		inPlace := rhs.Clone()
		for name, x := range map[string]Vector{
			"fresh":    b.solve(got, rhs, nil, nil),
			"into":     b.solve(got, rhs, NewVector(got.N), nil),
			"in place": b.solve(got, inPlace, inPlace, nil),
		} {
			if i := firstBitDiff(x, ref); i >= 0 {
				t.Fatalf("%s body: %s solve differs from %s at %d: %v vs %v (%s)", b.name, name, oracle, i, x[i], ref[i], profileString(got.first))
			}
		}
		var st Stats
		b.solve(got, rhs, nil, &st)
		if st.Flops != wantFlops {
			t.Fatalf("%s body: solve flops %d, %s %d (%s)", b.name, st.Flops, oracle, wantFlops, profileString(got.first))
		}
	}
}

// checkEnvelopeKernel factors one copy of e with kernel k — handed a copy
// of e's panel scratch as it stands — and one with the oracle and
// demands the same error, the same stored bits (of a failed
// factorisation, the rows down to the failing one) and the same flop
// count; when the factorisation succeeds it does the same for the
// substitution by each solve body the host runs, into a fresh vector, a
// caller's vector and in place.  It returns the kernel's error.
func checkEnvelopeKernel(t testing.TB, k envelopeKernel, e *Envelope, rhs Vector) error {
	t.Helper()
	got, want := NewEnvelope(e.first), NewEnvelope(e.first)
	copy(got.env, e.env)
	copy(want.env, e.env)
	got.panel = slices.Clone(e.panel)
	var gst, wst Stats
	gerr, werr := k.factor(got, &gst), refEnvelopeFactor(want, &wst)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s kernel: factor error %v, oracle %v (%s)", k.name, gerr, werr, profileString(e.first))
	}
	// A failed factorisation is compared up to the failing row: the
	// kernels take rows in pairs or blocks and have by then been at the
	// rows below it.
	stored := len(got.env)
	if gerr != nil {
		stored = got.ptr[failingRow(t, gerr)+1]
	}
	if i := firstBitDiff(got.env[:stored], want.env[:stored]); i >= 0 {
		t.Fatalf("%s kernel: factor differs from the oracle at stored entry %d: %v vs %v (%s)", k.name, i, got.env[i], want.env[i], profileString(e.first))
	}
	if gst.Flops != wst.Flops {
		t.Fatalf("%s kernel: factor flops %d, oracle %d (%s)", k.name, gst.Flops, wst.Flops, profileString(e.first))
	}
	if gerr != nil {
		return gerr
	}
	ref := rhs.Clone()
	wst = Stats{}
	refEnvelopeSolveInto(want, ref, &wst)
	checkSolveBodies(t, got, rhs, ref, wst.Flops, "the oracle")
	return nil
}

// failingRow returns the row a factorisation error names.
func failingRow(t testing.TB, err error) int {
	t.Helper()
	var row int
	if _, serr := fmt.Sscanf(err.Error(), "linalg: matrix not positive definite at row %d", &row); serr != nil {
		t.Fatalf("factor error %q names no row", err)
	}
	return row
}

// checkBandKernel is checkEnvelopeKernel for a band-profile envelope e
// against the Banded oracle b holding the same values: the same error,
// the same stored bits (of a failed factorisation, the rows down to the
// failing one) and, when the factorisation succeeds, the same flops and
// the same solution bits by each solve body the host runs, fresh, into a
// caller's vector and in place.
// The flops of a failed factorisation are not compared: Banded books the
// columns it finished, the envelope the rows.  It returns the kernel's
// error.
func checkBandKernel(t testing.TB, k envelopeKernel, e *Envelope, b *Banded, rhs Vector) error {
	t.Helper()
	got, want := NewEnvelope(e.first), b.Clone()
	got.rowDot = e.rowDot
	copy(got.env, e.env)
	var gst, wst Stats
	gerr, werr := k.factor(got, &gst), want.CholeskyFactorInPlace(&wst)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s kernel: band factor error %v, Banded %v (%s)", k.name, gerr, werr, profileString(e.first))
	}
	rows := e.N
	if gerr != nil {
		rows = failingRow(t, gerr) + 1
	}
	for i := range rows {
		for j := e.first[i]; j <= i; j++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s kernel: band factor differs from Banded at (%d,%d): %v vs %v (%s)", k.name, i, j, g, w, profileString(e.first))
			}
		}
	}
	if gerr != nil {
		return gerr
	}
	if gst.Flops != wst.Flops {
		t.Fatalf("%s kernel: band factor flops %d, Banded %d (%s)", k.name, gst.Flops, wst.Flops, profileString(e.first))
	}
	wst = Stats{}
	ref := want.CholeskySolveInto(rhs, nil, &wst)
	checkSolveBodies(t, got, rhs, ref, wst.Flops, "Banded")
	return nil
}

// profileKinds are the row-profile shapes the differential test draws:
// the ragged cases the blocked kernel has to get right are rows narrower
// than a block, neighbouring rows that begin far apart, rows whose first
// column jumps past a block's start or lies inside one, and the dense
// and diagonal extremes.
var profileKinds = []struct {
	name  string
	first func(rng *rand.Rand, i int, prev int) int
}{
	{"dense", func(*rand.Rand, int, int) int { return 0 }},
	{"diagonal", func(_ *rand.Rand, i, _ int) int { return i }},
	{"ragged", func(rng *rand.Rand, i, _ int) int { return rng.Intn(i + 1) }},
	{"narrow", func(rng *rand.Rand, i, _ int) int { return max(0, i-rng.Intn(4)) }},
	{"band", func(_ *rand.Rand, i, _ int) int { return max(0, i-6) }},
	// Monotone, as an RCM ordering leaves it, with occasional long jumps.
	{"monotone", func(rng *rand.Rand, i, prev int) int {
		f := prev + rng.Intn(3)
		if rng.Intn(8) == 0 {
			f += rng.Intn(6)
		}
		return min(f, i)
	}},
	// Mostly wide rows with narrow ones sprinkled in: the narrow rows
	// begin inside the blocks of the wide rows below them.
	{"holes", func(rng *rand.Rand, i, _ int) int {
		if rng.Intn(3) == 0 {
			return max(0, i-rng.Intn(3))
		}
		return rng.Intn(i/4 + 1)
	}},
	// Narrow rows closed by dense ones.
	{"dense-rows", func(rng *rand.Rand, i, _ int) int {
		if i%5 == 4 {
			return 0
		}
		return max(0, i-rng.Intn(3))
	}},
	// Eight-row blocks whose rows begin within a dozen columns before the
	// block, so that some begin inside the four-column tiles of the rows
	// above them and some at the block's first column; one row in twelve
	// begins next to its diagonal, a late column row for the blocks below
	// (and its own block goes four rows or two at a time).
	{"eight-row", func(rng *rand.Rand, i, _ int) int {
		b := i &^ 7
		switch rng.Intn(12) {
		case 0:
			return max(0, i-rng.Intn(3))
		case 1:
			return b
		}
		return max(0, b-rng.Intn(13))
	}},
}

// randomEnvelope returns a diagonally dominant (hence SPD) matrix with
// the given row profile and entries drawn from rng.  One off-diagonal in
// eight is an exact −0 beside the negative draws: a row's first entry
// then factors to −0, which a masked lane keeps only if the mask zeroes
// the product (x − (+0) = x) and not an operand (−0 − (−0) = +0).
func randomEnvelope(rng *rand.Rand, first []int) *Envelope {
	e := NewEnvelope(first)
	n := len(first)
	sum := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := first[i]; j < i; j++ {
			v := rng.Float64()*2 - 1
			if rng.Intn(8) == 0 {
				v = math.Copysign(0, -1)
			}
			e.Set(i, j, v)
			sum[i] += math.Abs(v)
			sum[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		e.Set(i, i, sum[i]+0.5+rng.Float64())
	}
	return e
}

// sparseCSR returns e as a full symmetric CSR matrix keeping each
// off-diagonal pair with probability 1/2 — still diagonally dominant.
func sparseCSR(t testing.TB, rng *rand.Rand, e *Envelope) *CSR {
	t.Helper()
	var ts []Triplet
	for i := 0; i < e.N; i++ {
		ts = append(ts, Triplet{Row: i, Col: i, Val: e.At(i, i)})
		for j := e.first[i]; j < i; j++ {
			if rng.Intn(2) == 0 {
				ts = append(ts, Triplet{Row: i, Col: j, Val: e.At(i, j)}, Triplet{Row: j, Col: i, Val: e.At(i, j)})
			}
		}
	}
	m, err := NewCSRFromTriplets(e.N, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomRHS(rng *rand.Rand, n int) Vector {
	b := NewVector(n)
	for i := range b {
		b[i] = rng.Float64()*20 - 10
	}
	return b
}

// TestEnvelopeKernelMatchesScalarOracle is the kernel's contract as a
// differential test: on seeded random SPD matrices over every profile
// shape and every small order, the blocked factorisation and forward
// substitution agree with the scalar loops they replaced in every stored
// bit, in the solve output and in Stats.Flops.
func TestEnvelopeKernelMatchesScalarOracle(t *testing.T) {
	t.Log(hostBodies())
	orders := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 22, 41, 63}
	for _, kind := range profileKinds {
		t.Run(kind.name, func(t *testing.T) {
			forEachKernel(t, func(t *testing.T, k envelopeKernel) {
				rng := rand.New(rand.NewSource(19))
				for _, n := range orders {
					for rep := 0; rep < 6; rep++ {
						first := make([]int, n)
						for i := 1; i < n; i++ {
							first[i] = kind.first(rng, i, first[i-1])
						}
						if err := checkEnvelopeKernel(t, k, randomEnvelope(rng, first), randomRHS(rng, n)); err != nil {
							t.Fatalf("n=%d: diagonally dominant matrix failed to factor: %v", n, err)
						}
					}
				}
			})
		})
	}
}

// TestEnvelopeBackwardBlocksMatchScalarOracle aims at the backward
// substitution's four-row blocks: in every order from 4 to 13 (each
// order mod 4), one row at a time begins 0, 1 or 2 columns before its
// diagonal — inside any block whose top three rows it is among, so that
// block's top row goes alone and the blocks below shift — beneath dense,
// banded and ragged rows.  The solution must equal the scalar loop's bit
// for bit.
func TestEnvelopeBackwardBlocksMatchScalarOracle(t *testing.T) {
	forEachKernel(t, func(t *testing.T, k envelopeKernel) {
		rng := rand.New(rand.NewSource(41))
		for n := 4; n <= 13; n++ {
			for _, kind := range []string{"dense", "band", "ragged"} {
				for p := 1; p < n; p++ {
					for o := 0; o <= 2; o++ {
						first := make([]int, n)
						for i := range first {
							switch kind {
							case "band":
								first[i] = max(0, i-5)
							case "ragged":
								first[i] = rng.Intn(i + 1)
							}
						}
						first[p] = max(0, p-o)
						if err := checkEnvelopeKernel(t, k, randomEnvelope(rng, first), randomRHS(rng, n)); err != nil {
							t.Fatalf("n=%d %s, row %d from %d: %v", n, kind, p, first[p], err)
						}
					}
				}
			}
		}
	})
}

// laneSpecials are the values TestEnvelopeSolveLanesMatchScalarOracle
// mixes into a factor and a right-hand side: −0, the infinities, the
// smallest and the largest subnormal of each sign, and ±MaxFloat64,
// whose products overflow unless a multiply and a subtract are fused.
var laneSpecials = []float64{
	math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64,
}

// TestEnvelopeSolveLanesMatchScalarOracle aims at the solve's
// shared-column loops, the part the AVX2 routines run.  In 16 rows, the
// block of rows 12..15 is the forward half's last block and the backward
// half's first, and its shared run (12 − kjoin, the same in both halves)
// takes every length from 0 to 11 — one of its rows, each in turn,
// begins at 12 − length, the others at or before it — beneath dense,
// band and ragged rows, whose own blocks meet other lengths.  The
// stored values are not factored but drawn: finite ones with exact −0s,
// or, in every other case, one in eight from laneSpecials (a sixteenth
// of one off the diagonal); every other case also puts a single NaN in
// the factor or the right-hand side.  Each
// body's solution must equal the scalar loop's bit for bit, NaNs as a
// class (firstNaNClassDiff), and its flops the loop's.
func TestEnvelopeSolveLanesMatchScalarOracle(t *testing.T) {
	const n, block = 16, 12
	for _, b := range solveBodies {
		t.Run(b.name, func(t *testing.T) {
			if !b.runs() {
				t.Skip("CPU has no AVX2")
			}
			rng := rand.New(rand.NewSource(47))
			rep := 0
			for _, kind := range []string{"dense", "band", "ragged"} {
				for length := 0; length < block; length++ {
					for late := range 4 {
						for mode := range 4 {
							rep++
							first := make([]int, n)
							for i := range first {
								switch kind {
								case "band":
									first[i] = max(0, i-5)
								case "ragged":
									first[i] = rng.Intn(i + 1)
								}
								if i >= block {
									first[i] = min(first[i], block-length)
								}
							}
							first[block+late] = block - length
							e := NewEnvelope(first)
							rhs := NewVector(n)
							draw := finiteDraw
							if mode&1 == 1 {
								draw = func(rng *rand.Rand) float64 {
									if rng.Intn(8) == 0 {
										return laneSpecials[rng.Intn(len(laneSpecials))]
									}
									return finiteDraw(rng)
								}
							}
							// Diagonals in [1, 2) and off-diagonals of a sixteenth
							// keep a finite case finite, so a product fused into
							// its subtraction shows in the rounding.
							for i := range n {
								row := e.env[e.ptr[i]:e.ptr[i+1]]
								for k := range row[:len(row)-1] {
									row[k] = draw(rng) / 16
								}
								row[len(row)-1] = 1 + rng.Float64()
								if mode&1 == 1 && rng.Intn(8) == 0 {
									row[len(row)-1] = laneSpecials[rng.Intn(len(laneSpecials))]
								}
							}
							for k := range rhs {
								rhs[k] = draw(rng)
							}
							if mode&2 == 2 {
								if k := rng.Intn(len(e.env) + n); k < len(e.env) {
									e.env[k] = math.NaN()
								} else {
									rhs[k-len(e.env)] = math.NaN()
								}
							}
							want := rhs.Clone()
							var wst Stats
							refEnvelopeSolveInto(e, want, &wst)
							inPlace := rhs.Clone()
							for name, x := range map[string]Vector{
								"fresh":    b.solve(e, rhs, nil, nil),
								"into":     b.solve(e, rhs, NewVector(n), nil),
								"in place": b.solve(e, inPlace, inPlace, nil),
							} {
								if i := firstNaNClassDiff(x, want); i >= 0 {
									t.Fatalf("%s rows, run of %d, row %d late, mode %d (case %d): %s solve differs from the oracle at %d: %v vs %v (%s)",
										kind, length, block+late, mode, rep, name, i, x[i], want[i], profileString(first))
								}
							}
							var st Stats
							b.solve(e, rhs, nil, &st)
							if st.Flops != wst.Flops {
								t.Fatalf("%s rows, run of %d: solve flops %d, oracle %d", kind, length, st.Flops, wst.Flops)
							}
						}
					}
				}
			}
		})
	}
}

// TestPanelTileSetUpMatchesScalarOracle aims at the panel routines' own
// set-up — kmin, kmax, the masked steps, the column pointers, the lane
// starts and, in the eight-row routine, the opmasks of the rows not yet
// begun — which they derive from first and ptr.  The values are drawn as
// randomEnvelope draws them, exact −0 included.  Factor, solution and
// flops must equal the scalar loops' bit for bit.
//
// panel: in 12 rows, the block of rows 8..11 runs one tile off the
// diagonal, columns 4..7 (column rows 4..7), and the diagonal one.  Each
// of the eight rows begins at each column 0..4, in every combination a
// tile at column 4 can meet: all block rows at column 0 (rows 0..3 are
// then dense and the loop takes columns 0..3 as a tile first), or a block
// row or one of rows 4..6 at column 4 (rows 0..3 then begin at their
// diagonals, so columns 0..3 go alone).  In the others the loop runs
// columns 3..6 as the tile, and those are skipped.  All of them take
// about 2 s on a two-vCPU x86-64 host, more than the rest of the
// package's tests together, so a seeded quarter runs; it includes
// masked = 0 with sums to run (every row at column 0), kmin set by the
// block rows and by the column rows, and lanes beginning at column 4.
//
// panel8: in 16 rows, the block of rows 8..15 runs the tiles of columns
// 0..3 and 4..7 and the two of its diagonal.  Seeded draws put each
// block row's first column anywhere in 0..8 — so rows begin inside a
// tile, after both, or all at column 0 — each of the column rows 4..7 at
// 0..4, or one in four anywhere up to its diagonal (a quadruple that
// goes alone), and rows 0..3 anywhere.  Every other draw fills the
// panel's scratch with NaN before the factorisation, and every other
// pair plants a +Inf diagonal in one of rows 0..7: it factors to +Inf,
// which the masked lanes of the column row below it read as L[j+c,k]
// before that row begins, so an unmasked product there is 0·Inf = NaN.
func TestPanelTileSetUpMatchesScalarOracle(t *testing.T) {
	t.Log(hostBodies())
	t.Run("panel", func(t *testing.T) {
		k := envelopeKernels[1]
		if !k.runs {
			t.Skip(k.skip)
		}
		const j, i, n = 4, 8, 12
		rng := rand.New(rand.NewSource(37))
		first := make([]int, n)
		var firsts [8]int // first[i..i+3], then first[j..j+3]
		for combo := range 625 * 625 {
			if combo > 0 && rng.Intn(4) > 0 {
				continue
			}
			for r, c := 0, combo; r < 8; r, c = r+1, c/5 {
				firsts[r] = c % 5
			}
			rows, cols := firsts[:4], firsts[4:]
			late := max(rows[0], rows[1], rows[2], rows[3])
			switch {
			case late == 0:
				clear(first[:j])
			case max(late, cols[0], cols[1], cols[2]) == j:
				for m := range j {
					first[m] = m
				}
			default:
				continue
			}
			copy(first[i:], rows)
			copy(first[j:], cols)
			if err := checkEnvelopeKernel(t, k, randomEnvelope(rng, first), randomRHS(rng, n)); err != nil {
				t.Fatalf("block rows from %v, column rows from %v: %v", rows, cols, err)
			}
		}
	})
	t.Run("panel8", func(t *testing.T) {
		k := envelopeKernels[2]
		if !k.runs {
			t.Skip(k.skip)
		}
		const n, draws = 16, 20000
		rng := rand.New(rand.NewSource(53))
		first := make([]int, n)
		// inside counts the draws with a block row beginning inside a
		// tile, after, those with every block row at column 0, alone
		// those with a column row beginning after column 4.
		var inside, after, dense, alone int
		for d := range draws {
			for m := range 4 {
				first[m] = rng.Intn(m + 1)
			}
			for m := 4; m < 8; m++ {
				first[m] = rng.Intn(5)
				if rng.Intn(4) == 0 {
					first[m] = rng.Intn(m + 1)
				}
			}
			rows := first[8:]
			switch rng.Intn(4) {
			case 0:
				clear(rows)
			default:
				for r := range rows {
					rows[r] = rng.Intn(9)
				}
			}
			if slices.ContainsFunc(rows, func(f int) bool { return f%4 != 0 }) {
				inside++
			}
			if slices.Contains(rows, 8) {
				after++
			}
			if slices.Max(rows) == 0 {
				dense++
			}
			if slices.Max(first[4:8]) > 4 {
				alone++
			}
			e := randomEnvelope(rng, first)
			if d&1 == 1 {
				e.panel = make([]float64, 8*n)
				for k := range e.panel {
					e.panel[k] = math.NaN()
				}
			}
			if d&2 == 2 {
				m := rng.Intn(8)
				e.Set(m, m, math.Inf(1))
			}
			_ = checkEnvelopeKernel(t, k, e, randomRHS(rng, n))
		}
		t.Logf("%d draws: a block row beginning inside a tile in %d, after both in %d, every one at column 0 in %d; a column quadruple alone in %d", draws, inside, after, dense, alone)
		if inside == 0 || after == 0 || dense == 0 || alone == 0 {
			t.Fatal("the draws missed a case")
		}
	})
}

// TestEnvelopeKernelFailsWhereOracleFails plants a non-positive pivot at
// every row of a matrix — the first and the second row of a pair, each
// row of a four- and an eight-row block, the odd last row — in each way a pivot can be unusable: the kernel must stop
// at the same row with the same message, the same factor down to that row
// and the same flop total as the scalar loop.
func TestEnvelopeKernelFailsWhereOracleFails(t *testing.T) {
	forEachKernel(t, func(t *testing.T, k envelopeKernel) {
		rng := rand.New(rand.NewSource(23))
		const n = 27
		for _, kind := range profileKinds {
			first := make([]int, n)
			for i := 1; i < n; i++ {
				first[i] = kind.first(rng, i, first[i-1])
			}
			for row := 0; row < n; row++ {
				for _, bad := range []float64{-1, 0, math.NaN(), math.Inf(-1)} {
					e := randomEnvelope(rng, first)
					e.Set(row, row, bad)
					err := checkEnvelopeKernel(t, k, e, randomRHS(rng, n))
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at row %d ", row)) {
						t.Errorf("%s: pivot %g at row %d: error %v", kind.name, bad, row, err)
					}
				}
				// A +Inf pivot passes s > 0 and zeroes its column; whether a
				// later row then meets Inf−Inf is the oracle's to say.
				e := randomEnvelope(rng, first)
				e.Set(row, row, math.Inf(1))
				_ = checkEnvelopeKernel(t, k, e, randomRHS(rng, n))
			}
		}
	})
}

// envelopeFromFuzz decodes a profile and values from fuzz bytes: the
// first byte's low seven bits are the order (mod 40, so that three
// eight-row blocks below the first have tiles), then one byte per
// row for its width, then one byte per stored value.  When the first
// byte's top bit is set the profile is a band instead: the second byte is
// the half-width w, every row begins at max(0, i−w), the envelope sums
// its backward half as a band plan does, and the Banded oracle holding
// the same values is returned beside it (nil otherwise).  Diagonals get
// the row's absolute sum added unless the value byte is odd, so most
// inputs factor and some fail part-way.
func envelopeFromFuzz(data []byte) (*Envelope, *Banded, Vector) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	head := next()
	n := int(head&0x7f) % 40
	band, w := head&0x80 != 0, 0
	if band {
		w = int(next())
	}
	first := make([]int, n)
	for i := range first {
		if band {
			first[i] = max(0, i-w)
		} else {
			first[i] = i - int(next())%(i+1)
		}
	}
	e := NewEnvelope(first)
	e.rowDot = band
	sum := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := first[i]; j < i; j++ {
			v := float64(int8(next())) / 16
			e.Set(i, j, v)
			sum[i] += math.Abs(v)
			sum[j] += math.Abs(v)
		}
	}
	rhs := NewVector(n)
	for i := 0; i < n; i++ {
		b := next()
		d := float64(b)/8 + 0.25
		if b&1 == 0 {
			d += sum[i]
		}
		e.Set(i, i, d)
		rhs[i] = float64(int8(next())) / 4
	}
	if !band {
		return e, nil, rhs
	}
	b := NewBanded(n, w)
	for i := range n {
		for j := first[i]; j <= i; j++ {
			b.Set(i, j, e.At(i, j))
		}
	}
	return e, b, rhs
}

// FuzzEnvelopeCholesky searches profiles and values for an input on
// which a kernel the host runs and its oracle part ways — in a stored
// bit, the solve output, the failing row or the flop count.  The oracle
// of a ragged profile is the scalar loops above, of a band profile the
// Banded solver.
func FuzzEnvelopeCholesky(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 8, 3})
	f.Add([]byte{9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 200, 17, 33, 250, 4, 90})
	f.Add([]byte{23, 0, 0, 1, 0, 3, 1, 5, 2, 7, 1, 9, 4, 11, 3, 13, 6, 2, 16, 1, 18, 5, 20, 7})
	f.Add([]byte{12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 255, 1, 255, 1, 255, 1, 255, 1})
	// Order 7 (7 mod 4 = 3): row 5 begins at column 4, inside the
	// backward block of rows 6..3, and row 6 is dense.
	f.Add([]byte{7, 0, 1, 2, 3, 4, 1, 6, 16, 240, 33, 7, 200, 9, 64, 3, 90, 12, 180, 5, 77, 31, 2, 150, 44})
	// Band profiles: order 9 with w = 0, order 10 with w = 1, order 13
	// with w = 3, and order 7 with w = 255 ≥ n−1, a dense triangle.
	f.Add([]byte{0x80 | 9, 0, 16, 8, 40, 250, 2, 17, 66, 3, 30, 200, 4, 9, 120, 100, 7, 70, 12, 33})
	f.Add([]byte{0x80 | 10, 1, 200, 17, 33, 250, 4, 90, 12, 180, 5, 16, 240, 33, 8, 200, 9, 64, 3, 90, 12, 180, 5, 77, 31, 2, 150, 44, 60, 61})
	f.Add([]byte{0x80 | 13, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 255, 1, 255, 1, 255, 1, 255, 1, 16, 240, 33, 7, 200, 9, 64, 3, 90, 12, 180, 5, 77, 31, 2, 150, 44, 16, 240, 33, 7, 200, 9, 65, 3, 90, 12, 180})
	f.Add([]byte{0x80 | 7, 255, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 200, 17, 33, 250, 4, 90, 16, 240, 33, 7, 200, 9, 64, 3, 90, 12, 180, 5, 77, 31, 2, 150})
	f.Log(hostBodies())
	f.Fuzz(func(t *testing.T, data []byte) {
		e, b, rhs := envelopeFromFuzz(data)
		for _, k := range envelopeKernels {
			switch {
			case !k.runs:
			case b != nil:
				_ = checkBandKernel(t, k, e, b, rhs)
			default:
				_ = checkEnvelopeKernel(t, k, e, rhs)
			}
		}
	})
}
