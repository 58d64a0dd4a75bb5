package command

import (
	"fmt"
	"math"
	"strconv"
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
// long names, and a typical solve, bare or submitted, allocates once, the
// string.
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
	sub := Submit{Cmd: c}
	if allocs := testing.AllocsPerRun(100, func() { _ = sub.String() }); allocs != 1 {
		t.Errorf("Submit.String allocates %v times, want 1", allocs)
	}
}

// g renders a float in the shortest form that round-trips through Parse.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// oracleString is the String methods the verb table replaced, moved here
// verbatim, one case per command type.
func oracleString(cmd Command) string {
	switch c := Value(cmd).(type) {
	case Help:
		return "help"
	case Ping:
		return "ping"
	case Version:
		return "version"
	case Stats:
		return "stats"
	case Quit:
		return "quit"
	case Define:
		return "define structure " + c.Name
	case SetMaterial:
		return fmt.Sprintf("material %s %s %s %s", g(c.E), g(c.Nu), g(c.T), g(c.A))
	case GenerateGrid:
		var b strings.Builder
		fmt.Fprintf(&b, "generate grid %s %d %d %s %s", c.Name, c.NX, c.NY, g(c.W), g(c.H))
		if c.ClampLeft {
			b.WriteString(" clamp-left")
		}
		if c.Jitter != 0 || c.Seed != 0 {
			fmt.Fprintf(&b, " jitter %s %d", g(c.Jitter), c.Seed)
		}
		return b.String()
	case GenerateTruss:
		return fmt.Sprintf("generate truss %s %d %s %s", c.Name, c.Bays, g(c.BayLen), g(c.Height))
	case GenerateBar:
		return fmt.Sprintf("generate bar %s %d %s", c.Name, c.Segments, g(c.Length))
	case AddNode:
		return fmt.Sprintf("node %s %s %s", c.Model, g(c.X), g(c.Y))
	case AddBar:
		return fmt.Sprintf("element bar %s %d %d", c.Model, c.N1, c.N2)
	case AddCST:
		return fmt.Sprintf("element cst %s %d %d %d", c.Model, c.N1, c.N2, c.N3)
	case FixNode:
		return fmt.Sprintf("fix node %s %d", c.Model, c.Node)
	case FixDOF:
		return fmt.Sprintf("fix dof %s %d", c.Model, c.DOF)
	case DefineLoadSet:
		return fmt.Sprintf("loadset %s %s", c.Model, c.Set)
	case AddLoad:
		return fmt.Sprintf("load %s %s %d %s", c.Model, c.Set, c.DOF, g(c.Value))
	case EndLoad:
		return fmt.Sprintf("load %s %s endload %s %s", c.Model, c.Set, g(c.FX), g(c.FY))
	case Solve:
		var buf [64]byte
		b := append(buf[:0], "solve "...)
		b = append(append(append(b, c.Model...), ' '), c.Set...)
		if c.Method != "" {
			b = append(append(b, " method "...), c.Method...)
		}
		if c.Precond != "" {
			b = append(append(b, " precond "...), c.Precond...)
		}
		if c.Parallel > 0 {
			b = strconv.AppendInt(append(b, " parallel "...), int64(c.Parallel), 10)
		}
		if c.Substructures > 0 {
			b = strconv.AppendInt(append(b, " substructures "...), int64(c.Substructures), 10)
		}
		return string(b)
	case Stresses:
		return "stresses " + c.Model
	case Display:
		return fmt.Sprintf("display %s %s", c.What, c.Model)
	case Store:
		return "store " + c.Model
	case Retrieve:
		return "retrieve " + c.Name
	case Delete:
		return "delete " + c.Name
	case List:
		return fmt.Sprintf("list %s", c.What)
	case Snapshot:
		return "snapshot " + c.Path
	case Restore:
		return "restore " + c.Path
	case Submit:
		return "submit " + c.Cmd.String()
	case Status:
		return fmt.Sprintf("status job-%d", c.ID)
	case Wait:
		return fmt.Sprintf("wait job-%d", c.ID)
	case Cancel:
		return fmt.Sprintf("cancel job-%d", c.ID)
	case Jobs:
		var b strings.Builder
		b.WriteString("jobs")
		if c.Owner != "" {
			fmt.Fprintf(&b, " user %s", c.Owner)
		}
		if c.State != "" {
			fmt.Fprintf(&b, " state %s", c.State)
		}
		return b.String()
	}
	panic(fmt.Sprintf("oracleString: %T", cmd))
}
