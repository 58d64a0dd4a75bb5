//go:build !amd64

package linalg

// haveAVX2 is false off amd64, where the pair kernel and the solve's Go
// loops are the only ones.
const haveAVX2 = false

// choleskyPanel is never run off amd64; it exists so the tests that name
// both kernels build everywhere.
func (e *Envelope) choleskyPanel(*Stats) error {
	panic("linalg: the panel kernel needs amd64 with AVX2")
}

// forwardLanes and backwardLanes are never run off amd64, where the
// solve's Go loops are the only body; they exist so the solve builds
// everywhere.
func forwardLanes(*[4]float64, *float64, *float64, *float64, *float64, *float64, int) {
	panic("linalg: the solve routines need amd64 with AVX2")
}

func backwardLanes(*float64, *float64, *float64, *float64, *float64, float64, float64, float64, float64, int) {
	panic("linalg: the solve routines need amd64 with AVX2")
}
