//go:build !amd64

package linalg

// haveAVX2 is false off amd64, where the pair kernel is the only one.
const haveAVX2 = false

// choleskyPanel is never run off amd64; it exists so the tests that name
// both kernels build everywhere.
func (e *Envelope) choleskyPanel(*Stats) error {
	panic("linalg: the panel kernel needs amd64 with AVX2")
}
