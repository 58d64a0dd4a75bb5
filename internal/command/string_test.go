package command

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// oracleSolveString is Solve.String as it was written with fmt, kept as
// the oracle of the appending one.
func oracleSolveString(c Solve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "solve %s %s", c.Model, c.Set)
	if c.Method != "" {
		fmt.Fprintf(&b, " method %s", c.Method)
	}
	if c.Precond != "" {
		fmt.Fprintf(&b, " precond %s", c.Precond)
	}
	if c.Parallel > 0 {
		fmt.Fprintf(&b, " parallel %d", c.Parallel)
	}
	if c.Substructures > 0 {
		fmt.Fprintf(&b, " substructures %d", c.Substructures)
	}
	return b.String()
}

// TestSolveStringMatchesFmtOracle: Solve.String writes the bytes the fmt
// body did over every combination of its optional fields — each method
// and preconditioner name or none, and parallel and substructures at
// zero, negative, small and extreme counts — under short, empty and
// long names, and a typical solve allocates once, the string.
func TestSolveStringMatchesFmtOracle(t *testing.T) {
	names := [][2]string{{"g", "l"}, {"", ""}, {strings.Repeat("plate", 20), "cruise"}}
	methods := []Method{"", MethodCholesky, MethodCholeskyRCM, MethodCholeskyEnv, MethodCG, MethodSOR, MethodJacobi}
	preconds := []Precond{"", Precond("jacobi"), Precond("ssor")}
	counts := []int{0, -1, 1, 4, 12, math.MaxInt, math.MinInt}
	n := 0
	for _, name := range names {
		for _, m := range methods {
			for _, p := range preconds {
				for _, par := range counts {
					for _, sub := range counts {
						c := Solve{Model: name[0], Set: name[1], Method: m, Precond: p, Parallel: par, Substructures: sub}
						if got, want := c.String(), oracleSolveString(c); got != want {
							t.Errorf("%#v:\n got %q\nwant %q", c, got, want)
						}
						n++
					}
				}
			}
		}
	}
	if want := len(names) * len(methods) * len(preconds) * len(counts) * len(counts); n != want {
		t.Fatalf("%d combinations, want %d", n, want)
	}
	c := Solve{Model: "g", Set: "l", Method: MethodCG, Precond: Precond("jacobi"), Parallel: 4}
	if allocs := testing.AllocsPerRun(100, func() { _ = c.String() }); allocs != 1 {
		t.Errorf("Solve.String allocates %v times, want 1", allocs)
	}
}
