package linalg

import (
	"fmt"
	"math"
)

// Envelope is a symmetric positive-definite matrix in lower envelope
// (skyline) storage: row i keeps the contiguous run of columns
// first[i]..i, where first[i] is the row's first structural non-zero.
// A band of half-width w is the profile first[i] = max(0, i−w), which
// charges every row for the worst row's bandwidth; the skyline charges
// each row for its own profile, which is what makes the direct baseline
// competitive on irregular meshes where a handful of wide rows would
// otherwise inflate the whole band.  Cholesky fill is confined to the
// envelope (a row's first non-zero never moves left during
// factorisation), so the factor lives in the same storage the matrix
// does.
type Envelope struct {
	N int
	// first[i] is the first stored column of row i (first[i] <= i).
	first []int
	// ptr[i] is the offset of row i's run in env; the run is
	// env[ptr[i] : ptr[i+1]], ordered by column, diagonal last.
	ptr []int
	env []float64
	// flops is what a successful factorisation spends, which the profile
	// alone decides.
	flops int64
	// panel is the panel kernel's scratch, allocated by its first run.
	panel []float64
	// rowDot makes the backward substitution a row dot over ascending k,
	// the order the banded solver summed it in.  NewDirectPlan sets it for
	// StorageBand alone, so a band plan's solutions keep those bits.
	rowDot bool
}

// NewEnvelope returns a zero matrix of order len(first) with the given
// row profile.  first[i] must lie in [0, i].
func NewEnvelope(first []int) *Envelope {
	n := len(first)
	e := &Envelope{N: n, first: append([]int(nil), first...), ptr: make([]int, n+1)}
	for i, f := range e.first {
		if f < 0 || f > i {
			panic(fmt.Errorf("%w: envelope row %d starts at %d", ErrDimension, i, f))
		}
		e.ptr[i+1] = e.ptr[i] + (i - f + 1)
		e.flops += e.rowFlops(i)
	}
	e.env = make([]float64, e.ptr[n])
	return e
}

// rowFlops returns the flops of factoring row i: 2(j−k)+1 for each entry
// (i,j) whose sum starts at column k = max(first[i], first[j]), and
// 2(i−first[i])+1 for the pivot.
func (e *Envelope) rowFlops(i int) int64 {
	fi := e.first[i]
	flops := int64(2*(i-fi) + 1)
	for j := fi; j < i; j++ {
		flops += int64(2*(j-max(fi, e.first[j])) + 1)
	}
	return flops
}

// NNZ returns the number of stored entries (the envelope profile size,
// lower triangle including the diagonal).
func (e *Envelope) NNZ() int { return len(e.env) }

// subDot returns s − Σ a[k]·b[k], subtracting in ascending k.  b may be
// longer than a.
func subDot(s float64, a, b []float64) float64 {
	b = b[:len(a)]
	for k, v := range a {
		s -= v * b[k]
	}
	return s
}

// subScaled subtracts a[k]·x from each y[k], k < len(a).
func subScaled(y, a []float64, x float64) {
	y = y[:len(a)]
	for k, v := range a {
		y[k] -= v * x
	}
}

// entryAlone computes L[i,j] on its own — row is row i's stored run, fi
// its first column.
func (e *Envelope) entryAlone(row []float64, fi, j int) {
	fj := e.first[j]
	rj := e.env[e.ptr[j]:e.ptr[j+1]]
	k := max(fi, fj)
	row[j-fi] = subDot(row[j-fi], row[k-fi:j-fi], rj[k-fj:]) / rj[j-fj]
}

// pivot finishes a row whose off-diagonal entries are factored: the
// diagonal (the run's last entry) less their squares, subtracted in
// ascending order, is replaced by its square root.  A sum that is not
// positive — NaN included — is returned as it is, the row untouched.
func pivot(row []float64) (s float64, ok bool) {
	d := len(row) - 1
	s = row[d]
	for _, v := range row[:d] {
		s -= v * v
	}
	if !(s > 0) {
		return s, false
	}
	row[d] = math.Sqrt(s)
	return s, true
}

// notPositiveDefinite books the flops spent up to a failed pivot and
// names it.
func notPositiveDefinite(st *Stats, flops int64, row int, pivot float64) error {
	st.addFlops(flops)
	return fmt.Errorf("linalg: matrix not positive definite at row %d (pivot %g)", row, pivot)
}

// failAt fails the factorisation at row r's pivot s, booking what the
// row-by-row order spends up to it: the rows before r, r's off-diagonal
// entries and the squares its pivot subtracts.
func (e *Envelope) failAt(st *Stats, r int, s float64) error {
	flops := e.rowFlops(r) - 1
	for i := range r {
		flops += e.rowFlops(i)
	}
	return notPositiveDefinite(st, flops, r, s)
}

// CholeskyFactorInPlace overwrites the stored values with the Cholesky
// factor L (the matrix equals L·Lᵀ).  It fails if the matrix is not
// positive definite — a NaN pivot included — leaving the storage partly
// overwritten; st receives the flops of the rows up to the failing pivot
// either way.  The profile alone decides the flops, so they are counted
// once per Envelope, not in the loops.
//
// The kernel's contract, which CholeskySolveInto's forward half shares:
// each factor entry and each forward-substitution row is one ascending-k
// sum; entries may be computed concurrently but never summed
// differently, hence the skyline factor ≡ the band factor of the same
// matrix bitwise, a band's ≡ the banded solver's it replaced (kept in
// banded_test.go as the oracle), and warm ≡ cold bitwise.  Entry (i,j)
// subtracts L[i,k]·L[j,k] over exactly the columns both rows store,
// k = max(first[i], first[j]) .. j-1 — the terms a uniform band adds to
// that are products with exact zeros — and divides by L[j,j].  Every
// product is rounded before it is subtracted: Go does not fuse
// s -= a*b on amd64, and the assembly uses no FMA.
//
// Three kernels keep the contract, and CPUID and XCR0 alone pick one.  A
// single sum is a chain of dependent subtractions closed by a division
// the row's next entry waits for, so it runs at the latency of those, not
// the throughput; every kernel therefore carries several sums side by
// side.
//
// The pair kernel, the only one off amd64 or without AVX2, computes four
// entries concurrently: columns j, j+1 of rows i, i+1.  Each runs alone
// up to the column where all four rows involved have begun, one loop then
// carries the four sums over the shared L[i,k], L[i+1,k], L[j,k],
// L[j+1,k], and each row finishes its pair in order; taking the sums from
// two rows lets one row's divisions overlap the other's.
//
// The panel kernel (envelope_amd64.go), where the CPU has AVX2, takes
// rows four at a time and computes a 4×4 block of entries, rows i..i+3 ×
// columns j..j+3, in one assembly routine with one four-lane AVX2
// register per column.  Each
// lane (r,c) is exactly entry (i+r, j+c)'s scalar chain: for each k in
// ascending order a multiply and a separately rounded subtract, then the
// block's own columns j..j+c-1 in ascending order, then one division by
// L[j+c,j+c].  At a k before lane (r,c)'s chain begins — row i+r or row
// j+c starts after it — the lane's product is masked to +0, and
// x − (+0) = x for every x, −0, infinities and NaN included, so masking
// never changes a bit.
//
// The eight-row panel kernel, where the CPU has AVX-512, is the same with
// eight rows × four columns and one eight-lane register per column, for
// the blocks of rows i..i+7 (i ≡ 0 mod 8) that have all begun by column
// i; the other blocks go four rows at a time.  Its tiles need not wait
// for the rows to begin: a row begun after a tile column stores nothing
// there, its lanes' products in the block's own columns masked to +0.
func (e *Envelope) CholeskyFactorInPlace(st *Stats) error {
	switch {
	case haveAVX512:
		return e.choleskyPanel8(st)
	case haveAVX2:
		return e.choleskyPanel(st)
	}
	return e.choleskyPairs(st)
}

// choleskyPairs is CholeskyFactorInPlace by the pair kernel alone.
func (e *Envelope) choleskyPairs(st *Stats) error {
	if err := e.factorPairs(st, 0, e.N); err != nil {
		return err
	}
	st.addFlops(e.flops)
	return nil
}

// factorPairs factors rows lo..hi-1, every row before lo factored, with
// the pair kernel.  Only a failure books flops.
func (e *Envelope) factorPairs(st *Stats, lo, hi int) error {
	env, first, ptr := e.env, e.first, e.ptr
	for i := lo; i < hi; i += 2 {
		// Rows a = i and b = i+1 go together.  A last odd row goes as an a
		// whose b begins past every column they could share.
		fa, ra := first[i], env[ptr[i]:ptr[i+1]]
		fb, rb := i+1, []float64(nil)
		if i+1 < hi {
			fb, rb = first[i+1], env[ptr[i+1]:ptr[i+2]]
		}
		both := max(fa, fb)
		for j := fa; j < min(both, i); j++ {
			e.entryAlone(ra, fa, j)
		}
		for j := fb; j < min(both, i); j++ {
			e.entryAlone(rb, fb, j)
		}
		j := both
		for j+2 <= i {
			f0, f1 := first[j], first[j+1]
			// All four rows have begun by column kjoin.  Row j+1 beginning
			// at its own diagonal stores no L[j+1,j] to pair the columns
			// through, so there column j goes alone.
			kjoin := max(both, f0, f1)
			if kjoin > j {
				e.entryAlone(ra, fa, j)
				e.entryAlone(rb, fb, j)
				j++
				continue
			}
			r0, r1 := env[ptr[j]:ptr[j+1]], env[ptr[j+1]:ptr[j+2]]
			ka0, ka1 := max(fa, f0), max(fa, f1)
			kb0, kb1 := max(fb, f0), max(fb, f1)
			sa0 := subDot(ra[j-fa], ra[ka0-fa:kjoin-fa], r0[ka0-f0:])
			sa1 := subDot(ra[j+1-fa], ra[ka1-fa:kjoin-fa], r1[ka1-f1:])
			sb0 := subDot(rb[j-fb], rb[kb0-fb:kjoin-fb], r0[kb0-f0:])
			sb1 := subDot(rb[j+1-fb], rb[kb1-fb:kjoin-fb], r1[kb1-f1:])
			a := ra[kjoin-fa : j-fa]
			b := rb[kjoin-fb:][:len(a)]
			c0, c1 := r0[kjoin-f0:][:len(a)], r1[kjoin-f1:][:len(a)]
			for k, va := range a {
				vb := b[k]
				sa0 -= va * c0[k]
				sa1 -= va * c1[k]
				sb0 -= vb * c0[k]
				sb1 -= vb * c1[k]
			}
			d0, l10, d1 := r0[j-f0], r1[j-f1], r1[j+1-f1]
			la := sa0 / d0
			ra[j-fa] = la
			sa1 -= la * l10
			ra[j+1-fa] = sa1 / d1
			lb := sb0 / d0
			rb[j-fb] = lb
			sb1 -= lb * l10
			rb[j+1-fb] = sb1 / d1
			j += 2
		}
		if j < i {
			e.entryAlone(ra, fa, j)
			e.entryAlone(rb, fb, j)
		}
		if s, ok := pivot(ra); !ok {
			return e.failAt(st, i, s)
		}
		if rb == nil {
			break
		}
		if fb <= i {
			e.entryAlone(rb, fb, i)
		}
		if s, ok := pivot(rb); !ok {
			return e.failAt(st, i+1, s)
		}
	}
	return nil
}

// CholeskySolveInto solves L·Lᵀ·x = rhs given the factor from
// CholeskyFactorInPlace, writing into out (allocated when nil; may
// alias rhs to solve in place).  The forward half computes four rows
// side by side under CholeskyFactorInPlace's contract — each row's sum
// still runs over its own columns in ascending order.  The backward half
// is a column update over descending i, also four rows at a time: the
// block's own triangle in row order, then one pass in which each y[k]
// receives the four rows' updates in descending-row order, exactly the
// order updating one row at a time gives it.  A block in which row i,
// i-1 or i-2 begins after column i-3 takes its row i alone, as do the
// fewer than four rows left at the end.  A band plan's envelope (rowDot)
// sums the backward half as a row dot over ascending k instead, the
// banded solver's order, so a band and a skyline plan of one matrix
// differ in their solutions' last bits though not in their factors.
//
// Each half's loop over a block's shared columns — the columns all four
// rows store, which carry most of the factor — has two bodies, and the
// CPU alone picks one, as it picks the factor kernel.  On amd64 with
// AVX2 two assembly routines (envelope_amd64.s) run it four k per
// register and leave the last fewer than four to the Go loop.  The
// forward routine keeps the block's four row sums in the lanes of one
// register: each four k it transposes the rows' next four entries into
// four column vectors, then for each k ascending broadcasts y[k],
// multiplies and subtracts.  The backward routine updates four y[k] per
// register, by the rows in descending order.  Neither uses FMA: every
// product is rounded before it is subtracted, as in Go, so each solution
// is bit for bit the Go body's.  Everything else — the runs before the
// shared columns, the blocks' triangles and divisions, the rows that go
// alone and the row dot — is the same Go for both.
func (e *Envelope) CholeskySolveInto(rhs, out Vector, st *Stats) Vector {
	return e.solveInto(rhs, out, st, haveAVX2)
}

// solveInto is CholeskySolveInto with the shared-column loops run by the
// AVX2 routines when lanes is set and by Go alone otherwise.
func (e *Envelope) solveInto(rhs, out Vector, st *Stats, lanes bool) Vector {
	if len(rhs) != e.N {
		panic(fmt.Errorf("%w: Envelope.CholeskySolveInto order %d with rhs %d", ErrDimension, e.N, len(rhs)))
	}
	y := out
	if y == nil {
		y = NewVector(e.N)
	}
	if len(y) != e.N {
		panic(fmt.Errorf("%w: Envelope.CholeskySolveInto order %d into %d", ErrDimension, e.N, len(y)))
	}
	if e.N > 0 && &y[0] != &rhs[0] {
		copy(y, rhs)
	}
	env, first, ptr := e.env, e.first, e.ptr
	// Forward: L·y = rhs, row-oriented.
	for i := 0; i < e.N; {
		f0 := first[i]
		r0 := env[ptr[i]:ptr[i+1]]
		if i+4 <= e.N {
			f1, f2, f3 := first[i+1], first[i+2], first[i+3]
			// All four rows have begun by column kjoin.  A row beginning
			// inside the block stores no multiplier for the block's earlier
			// unknowns, so there row i goes alone.
			if kjoin := max(f0, f1, f2, f3); kjoin <= i {
				r1, r2, r3 := env[ptr[i+1]:ptr[i+2]], env[ptr[i+2]:ptr[i+3]], env[ptr[i+3]:ptr[i+4]]
				s0 := subDot(y[i], r0[:kjoin-f0], y[f0:])
				s1 := subDot(y[i+1], r1[:kjoin-f1], y[f1:])
				s2 := subDot(y[i+2], r2[:kjoin-f2], y[f2:])
				s3 := subDot(y[i+3], r3[:kjoin-f3], y[f3:])
				if n := (i - kjoin) &^ 3; lanes && n > 0 {
					s := [4]float64{s0, s1, s2, s3}
					forwardLanes(&s, &r0[kjoin-f0], &r1[kjoin-f1], &r2[kjoin-f2], &r3[kjoin-f3], &y[kjoin], i-kjoin)
					s0, s1, s2, s3 = s[0], s[1], s[2], s[3]
					kjoin += n
				}
				yk := y[kjoin:i]
				b0, b1 := r0[kjoin-f0:][:len(yk)], r1[kjoin-f1:][:len(yk)]
				b2, b3 := r2[kjoin-f2:][:len(yk)], r3[kjoin-f3:][:len(yk)]
				for k, v := range yk {
					s0 -= b0[k] * v
					s1 -= b1[k] * v
					s2 -= b2[k] * v
					s3 -= b3[k] * v
				}
				y0 := s0 / r0[i-f0]
				y[i] = y0
				s1 -= r1[i-f1] * y0
				y1 := s1 / r1[i+1-f1]
				y[i+1] = y1
				s2 -= r2[i-f2] * y0
				s2 -= r2[i+1-f2] * y1
				y2 := s2 / r2[i+2-f2]
				y[i+2] = y2
				s3 -= r3[i-f3] * y0
				s3 -= r3[i+1-f3] * y1
				s3 -= r3[i+2-f3] * y2
				y[i+3] = s3 / r3[i+3-f3]
				i += 4
				continue
			}
		}
		y[i] = subDot(y[i], r0[:i-f0], y[f0:]) / r0[i-f0]
		i++
	}
	if e.rowDot {
		e.backwardRows(y)
	} else {
		e.backwardColumns(y, lanes)
	}
	// Each half is one multiply-subtract per stored off-diagonal entry
	// and one division per row.
	st.addFlops(4*int64(len(env)) - 2*int64(e.N))
	return y
}

// backwardRows solves Lᵀ·x = y in place as a row dot over ascending k:
// x[i] = (y[i] − Σ L[k,i]·x[k]) / L[i,i] over the contiguous rows
// k = i+1 … whose first column is at most i.  In a band those are all
// the rows that store column i, which is why only a band sets rowDot.
func (e *Envelope) backwardRows(y Vector) {
	env, first, ptr := e.env, e.first, e.ptr
	for i := e.N - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < e.N && first[k] <= i; k++ {
			s -= env[ptr[k]+i-first[k]] * y[k]
		}
		y[i] = s / env[ptr[i+1]-1]
	}
}

// backwardColumns solves Lᵀ·x = y in place, column-oriented over the
// row-stored factor, the shared columns by the AVX2 routine when lanes
// is set.
func (e *Envelope) backwardColumns(y Vector, lanes bool) {
	env, first, ptr := e.env, e.first, e.ptr
	for i := e.N - 1; i >= 0; {
		f0 := first[i]
		r0 := env[ptr[i]:ptr[i+1]]
		if i >= 3 {
			f1, f2, f3 := first[i-1], first[i-2], first[i-3]
			// Rows i, i-1 and i-2 store the block's whole triangle.  A row
			// beginning inside the block stores no multiplier for some of
			// its later unknowns, so there row i goes alone.
			if max(f0, f1, f2) <= i-3 {
				r1, r2, r3 := env[ptr[i-1]:ptr[i]], env[ptr[i-2]:ptr[i-1]], env[ptr[i-3]:ptr[i-2]]
				x0 := y[i] / r0[i-f0]
				y[i] = x0
				y1 := y[i-1] - r0[i-1-f0]*x0
				y2 := y[i-2] - r0[i-2-f0]*x0
				y3 := y[i-3] - r0[i-3-f0]*x0
				x1 := y1 / r1[i-1-f1]
				y[i-1] = x1
				y2 -= r1[i-2-f1] * x1
				y3 -= r1[i-3-f1] * x1
				x2 := y2 / r2[i-2-f2]
				y[i-2] = x2
				y3 -= r2[i-3-f2] * x2
				x3 := y3 / r3[i-3-f3]
				y[i-3] = x3
				// The columns only some of the four rows store, each row
				// where it stores, rows descending; then the columns all
				// four store, each y[k] loaded once and updated by the rows
				// in descending order as the row-by-row loop would.
				kjoin := max(f0, f1, f2, f3)
				subScaled(y[f0:kjoin], r0[:kjoin-f0], x0)
				subScaled(y[f1:kjoin], r1[:kjoin-f1], x1)
				subScaled(y[f2:kjoin], r2[:kjoin-f2], x2)
				subScaled(y[f3:kjoin], r3[:kjoin-f3], x3)
				if n := (i - 3 - kjoin) &^ 3; lanes && n > 0 {
					backwardLanes(&y[kjoin], &r0[kjoin-f0], &r1[kjoin-f1], &r2[kjoin-f2], &r3[kjoin-f3], x0, x1, x2, x3, i-3-kjoin)
					kjoin += n
				}
				yk := y[kjoin : i-3]
				a0, a1 := r0[kjoin-f0:][:len(yk)], r1[kjoin-f1:][:len(yk)]
				a2, a3 := r2[kjoin-f2:][:len(yk)], r3[kjoin-f3:][:len(yk)]
				for k, v := range yk {
					v -= a0[k] * x0
					v -= a1[k] * x1
					v -= a2[k] * x2
					v -= a3[k] * x3
					yk[k] = v
				}
				i -= 4
				continue
			}
		}
		x := y[i] / r0[i-f0]
		y[i] = x
		subScaled(y[f0:i], r0[:i-f0], x)
		i--
	}
}
