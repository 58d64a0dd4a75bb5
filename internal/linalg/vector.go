// Package linalg provides the dense, envelope (band and skyline), and
// sparse linear algebra kernels underlying the FEM-2 reproduction.
//
// The numerical analyst's virtual machine in the paper exposes "linear
// algebra operations: inner product, vector operations, etc."; the hardware
// requirements list "fast linear algebra operations (to extract the
// low-level parallelism available in these operations)".  This package
// holds those operations and the one implementation of each iterative
// method (CG, Jacobi, SOR), each the Kernel of its row in the method
// table (engine.go).  Each runs over row blocks (Blocks) and calls an
// optional cost hook where a distributed solve pays: the halo before a
// product, each block's work, each barrier.  The sequential solve runs
// one block and no hook; the NAVM layer runs one block per worker with a
// hook that charges the simulated machine.  So a one-block distributed
// solve is the sequential solve, bit for bit.
//
// All operations count floating point work through the optional *Stats so
// experiments can report processing requirements exactly.  The iterative
// kernels do not count a reduction's square root: it is no block's work.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned when operand dimensions are incompatible.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Stats accumulates floating-point operation counts for the kernels.  A nil
// *Stats is a valid no-op sink.  Stats is not safe for concurrent use; the
// parallel layers keep one per worker and merge.
type Stats struct {
	// Flops counts floating point operations (one add, mul, div, or sqrt
	// each).
	Flops int64
	// Iterations counts solver iterations, where applicable.
	Iterations int
}

func (s *Stats) addFlops(n int64) {
	if s != nil {
		s.Flops += n
	}
}

// Merge adds other's counts into s.
func (s *Stats) Merge(other Stats) {
	if s == nil {
		return
	}
	s.Flops += other.Flops
	s.Iterations += other.Iterations
}

// Vector is a dense vector of float64 values.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Dot returns the inner product of a and b, the central NAVM linear
// algebra operation.  It panics via ErrDimension check if lengths differ.
func Dot(a, b Vector, st *Stats) float64 {
	if len(a) != len(b) {
		panic(fmt.Errorf("%w: Dot %d vs %d", ErrDimension, len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	st.addFlops(int64(2 * len(a)))
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y Vector, st *Stats) {
	if len(x) != len(y) {
		panic(fmt.Errorf("%w: Axpy %d vs %d", ErrDimension, len(x), len(y)))
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
	st.addFlops(int64(2 * len(x)))
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v Vector, st *Stats) float64 {
	s := Dot(v, v, st)
	st.addFlops(1)
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute element of v.
func NormInf(v Vector) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// MaxAbsDiff returns max_i |a_i - b_i|, useful for solution comparisons in
// tests and experiments.
func MaxAbsDiff(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Errorf("%w: MaxAbsDiff %d vs %d", ErrDimension, len(a), len(b)))
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
