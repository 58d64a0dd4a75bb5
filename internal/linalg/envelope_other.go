//go:build !amd64

package linalg

// haveAVX2 and haveAVX512 are false off amd64, where the pair kernel and
// the solve's Go loops are the only ones.
const haveAVX2, haveAVX512 = false, false

// choleskyPanel and choleskyPanel8 are never run off amd64; they exist
// so the tests that name every kernel build everywhere.
func (e *Envelope) choleskyPanel(*Stats) error {
	panic("linalg: the panel kernel needs amd64 with AVX2")
}

func (e *Envelope) choleskyPanel8(*Stats) error {
	panic("linalg: the eight-row panel kernel needs amd64 with AVX-512")
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
