package command

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/errs"
)

// TestParseEveryVerb drives the parser through every verb and option
// combination of the command language.
func TestParseEveryVerb(t *testing.T) {
	cases := []struct {
		line string
		want Command
	}{
		{"help", Help{}},
		{"ping", Ping{}},
		{"version", Version{}},
		{"stats", Stats{}},
		{"STATS", Stats{}},
		{"quit", Quit{}},
		{"exit", Quit{}},
		{"QUIT", Quit{}}, // verbs are case-insensitive
		{"define structure wing", Define{Name: "wing"}},
		{"material 200000 0.3 10 2000", SetMaterial{E: 200000, Nu: 0.3, T: 10, A: 2000}},
		{"generate grid g 4 3 4.5 3.5", GenerateGrid{Name: "g", NX: 4, NY: 3, W: 4.5, H: 3.5}},
		{"generate grid g 4 3 4 3 clamp-left", GenerateGrid{Name: "g", NX: 4, NY: 3, W: 4, H: 3, ClampLeft: true}},
		{"generate grid g 4 3 4 3 clamp-left jitter 0.1 7",
			GenerateGrid{Name: "g", NX: 4, NY: 3, W: 4, H: 3, ClampLeft: true, Jitter: 0.1, Seed: 7}},
		{"generate truss tr 4 100 80", GenerateTruss{Name: "tr", Bays: 4, BayLen: 100, Height: 80}},
		{"generate bar b 10 100", GenerateBar{Name: "b", Segments: 10, Length: 100}},
		{"node m 1 2.5", AddNode{Model: "m", X: 1, Y: 2.5}},
		{"element bar m 0 1", AddBar{Model: "m", N1: 0, N2: 1}},
		{"element cst m 0 1 2", AddCST{Model: "m", N1: 0, N2: 1, N3: 2}},
		{"fix node m 0", FixNode{Model: "m", Node: 0}},
		{"fix dof m 3", FixDOF{Model: "m", DOF: 3}},
		{"loadset m ls", DefineLoadSet{Model: "m", Set: "ls"}},
		{"load m ls 3 -50.5", AddLoad{Model: "m", Set: "ls", DOF: 3, Value: -50.5}},
		{"load m ls endload 0 -1000", EndLoad{Model: "m", Set: "ls", FX: 0, FY: -1000}},
		{"solve m ls", Solve{Model: "m", Set: "ls"}},
		{"solve m ls method cg", Solve{Model: "m", Set: "ls", Method: MethodCG}},
		{"solve m ls method cholesky", Solve{Model: "m", Set: "ls", Method: MethodCholesky}},
		{"solve m ls method sor", Solve{Model: "m", Set: "ls", Method: MethodSOR}},
		{"solve m ls method jacobi", Solve{Model: "m", Set: "ls", Method: MethodJacobi}},
		{"solve m ls method cholesky-rcm", Solve{Model: "m", Set: "ls", Method: MethodCholeskyRCM}},
		{"solve m ls method cholesky-env", Solve{Model: "m", Set: "ls", Method: MethodCholeskyEnv}},
		{"solve m ls method cg precond jacobi", Solve{Model: "m", Set: "ls", Method: MethodCG, Precond: Precond("jacobi")}},
		{"solve m ls method cg precond ssor parallel 8",
			Solve{Model: "m", Set: "ls", Method: MethodCG, Precond: Precond("ssor"), Parallel: 8}},
		{"solve m ls parallel 8", Solve{Model: "m", Set: "ls", Parallel: 8}},
		{"solve m ls substructures 4", Solve{Model: "m", Set: "ls", Substructures: 4}},
		{"solve m ls method sor parallel 2 substructures 3",
			Solve{Model: "m", Set: "ls", Method: MethodSOR, Parallel: 2, Substructures: 3}},
		{"stresses m", Stresses{Model: "m"}},
		{"display model m", Display{What: DisplayModel, Model: "m"}},
		{"display displacements m", Display{What: DisplayDisplacements, Model: "m"}},
		{"display stresses m", Display{What: DisplayStresses, Model: "m"}},
		{"store m", Store{Model: "m"}},
		{"retrieve m", Retrieve{Name: "m"}},
		{"delete m", Delete{Name: "m"}},
		{"list db", List{What: ListDB}},
		{"list workspace", List{What: ListWorkspace}},
	}
	for _, c := range cases {
		got, err := Parse(c.line)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.line, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", c.line, got, c.want)
		}
	}
}

// TestParseBlankAndComment checks the no-op lines parse to (nil, nil).
func TestParseBlankAndComment(t *testing.T) {
	for _, line := range []string{"", "   ", "\t", "# a comment", "#comment"} {
		cmd, err := Parse(line)
		if cmd != nil || err != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", line, cmd, err)
		}
	}
}

// TestParseUsageErrors drives every usage-error branch of the parser;
// each must reject the line with an error wrapping ErrUsage.
func TestParseUsageErrors(t *testing.T) {
	bad := []string{
		"frobnicate",                           // unknown verb
		"ping now",                             // extra arg
		"version 2",                            // extra arg
		"define wing",                          // missing keyword
		"define structure",                     // missing name
		"define structure a b",                 // extra arg
		"material 1 2 3",                       // missing arg
		"material x 2 3 4",                     // non-numeric
		"generate",                             // no kind
		"generate grid g",                      // missing dims
		"generate grid g a b c d",              // non-numeric dims
		"generate grid g 1 1 1 1 wat",          // unknown option
		"generate grid g 1 1 1 1 jitter 0.1",   // jitter missing seed
		"generate grid g 1 1 1 1 jitter x 1",   // bad fraction
		"generate grid g 1 1 1 1 jitter 0.1 x", // bad seed
		"generate truss t 1 2",                 // missing arg
		"generate truss t a b c",               // non-numeric
		"generate bar b 1",                     // missing arg
		"generate bar b a b",                   // non-numeric
		"generate sphere s 1",                  // unknown kind
		"node m 1",                             // missing coord
		"node m a b",                           // non-numeric
		"element",                              // no args
		"element bar m 1",                      // wrong node count
		"element bar m a b",                    // non-numeric nodes
		"element cst m 1 2",                    // wrong node count
		"element wedge m 1 2",                  // unknown element
		"fix node m",                           // missing index
		"fix wat m 1",                          // unknown target
		"fix node m x",                         // non-numeric index
		"loadset m",                            // missing name
		"load m",                               // too few args
		"load m ls x 1",                        // non-numeric dof
		"load m ls endload x 1",                // non-numeric force
		"solve m",                              // missing set
		"solve m ls method",                    // dangling option
		"solve m ls method gauss",              // unknown method
		"solve m ls parallel",                  // dangling option
		"solve m ls parallel 0",                // non-positive workers
		"solve m ls parallel x",                // non-numeric workers
		"solve m ls substructures 0",           // non-positive count
		"solve m ls wat",                       // unknown option
		"stresses",                             // missing model
		"display model",                        // missing model
		"display wat m",                        // unknown display
		"store",                                // missing model
		"retrieve",                             // missing name
		"delete",                               // missing name
		"list",                                 // missing target
		"list wat",                             // unknown target
	}
	for _, line := range bad {
		cmd, err := Parse(line)
		if err == nil {
			t.Errorf("Parse(%q) accepted as %#v", line, cmd)
			continue
		}
		if !errors.Is(err, errs.ErrUsage) {
			t.Errorf("Parse(%q) error %v does not wrap ErrUsage", line, err)
		}
		if cmd != nil {
			t.Errorf("Parse(%q) returned a command alongside the error", line)
		}
	}
}

// TestResultRenderings spot-checks the result String forms the REPL
// displays, including the variants that branch on result fields.
func TestResultRenderings(t *testing.T) {
	cases := []struct {
		res  Result
		want string
	}{
		{PingResult{}, "pong"},
		{VersionResult{Server: "fem2", Release: "0.6.0", Protocol: 1},
			"fem2 0.6.0 (protocol 1)"},
		{VersionResult{Server: "fem2", Release: "0.7.0", Protocol: 2, Storage: "file"},
			"fem2 0.7.0 (protocol 2, storage file)"},
		{SnapshotResult{Path: "ws.snap", Models: 2, Bytes: 4096},
			`snapshot "ws.snap": 2 models, 4096 bytes`},
		{RestoreResult{Path: "ws.snap", Models: 2},
			`restored 2 models from "ws.snap"`},
		{QuitResult{}, "bye"},
		{DefineResult{Name: "wing"}, `defined structure "wing"`},
		{GenerateResult{Kind: "grid", Name: "g", Nodes: 25, Elements: 32},
			`generated grid "g": 25 nodes, 32 elements`},
		{GenerateResult{Kind: "truss", Name: "tr", Nodes: 10, Elements: 17},
			`generated truss "tr": 10 nodes, 17 members`},
		{GenerateResult{Kind: "bar", Name: "b", Nodes: 11, Elements: 10},
			`generated bar "b": 10 segments`},
		{ElementResult{Kind: "bar", Model: "m", Nodes: []int{0, 1}},
			`bar 0-1 added to "m"`},
		{ElementResult{Kind: "cst", Model: "m", Nodes: []int{0, 1, 2}},
			`cst 0-1-2 added to "m"`},
		{FixResult{What: "dof", Index: 3}, "dof 3 fixed"},
		{SolveResult{Model: "m", Set: "ls", Backend: "cholesky", MaxDisp: 0.5, MaxDOF: 7},
			`solved "m"/"ls" (cholesky): max |u| = 0.5 at dof 7`},
		{SolveResult{Model: "m", Set: "ls", Backend: "cg", Precond: "jacobi", Iterations: 42,
			Residual: 5e-09, MaxDisp: 0.5, MaxDOF: 7},
			`solved "m"/"ls" (cg+jacobi): 42 iterations, residual 5e-09; max |u| = 0.5 at dof 7`},
		{SolveResult{Model: "m", Set: "ls", Backend: "cg", Parallel: 4, Iterations: 10, HaloWords: 100,
			Makespan: 1000, MaxDisp: 0.5, MaxDOF: 7},
			`solved "m"/"ls" in parallel on 4 workers (cg): 10 iterations, 100 halo words, makespan 1000 cycles; max |u| = 0.5 at dof 7`},
		{ListResult{What: ListDB, Names: []string{"a", "b"}, Bytes: 128},
			"data base (2 models, 128 bytes): a b"},
		{ListResult{What: ListWorkspace, Names: []string{"a"}, Words: 64},
			"workspace (1 models, 64 words): a"},
		{ModelInfoResult{Name: "m", Nodes: 3, DOFs: 6, Fixed: 2,
			ElementCounts: map[string]int{"cst": 1, "bar": 2}},
			`model "m": 3 nodes, 6 dofs (2 fixed), elements: 1 cst, 2 bar`},
	}
	for _, c := range cases {
		if got := c.res.String(); got != c.want {
			t.Errorf("%T.String() = %q, want %q", c.res, got, c.want)
		}
	}
	if !strings.Contains((HelpResult{}).String(), "solve <model> <set>") {
		t.Error("help text missing solve usage")
	}
}
