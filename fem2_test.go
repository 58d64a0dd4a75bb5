package fem2_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	fem2 "repro"
	"repro/internal/fem"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Session("engineer")
	for _, cmd := range []string{
		"generate grid wing 8 6 8 6 clamp-left",
		"load wing cruise endload 0 -1000",
		"solve wing cruise parallel 4",
		"stresses wing",
		"store wing",
	} {
		if _, err := s.Execute(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	if sys.Machine.Makespan() == 0 {
		t.Error("no simulated time elapsed")
	}
	if got, _, _ := sys.Database.List(); len(got) != 1 || got[0] != "wing" {
		t.Errorf("database = %v", got)
	}
}

// TestREPLSolveBackendsAgree is the acceptance check for the unified
// engine: every backend — and CG under each preconditioner — is
// selectable by name through the REPL solve verb, and all produce the
// same displacements on the shared fixture (a bar chain, diagonally
// dominant enough that even Jacobi converges).
func TestREPLSolveBackendsAgree(t *testing.T) {
	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Session("eng")
	for _, cmd := range []string{
		"generate bar chain 12 120",
		"load chain tip 24 500", // x of the tip node
		"solve chain tip",
	} {
		if _, err := s.Execute(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	ref := append([]float64(nil), s.WS.Solution("chain").U...)
	var scale float64
	for _, v := range ref {
		if math.Abs(v) > scale {
			scale = math.Abs(v)
		}
	}
	cases := []struct{ spec, engine string }{
		{"method cholesky", "cholesky"},
		{"method cholesky-rcm", "cholesky-rcm"},
		{"method cg", "cg"},
		{"method cg precond jacobi", "cg+jacobi"},
		{"method cg precond ssor", "cg+ssor"},
		{"method jacobi", "jacobi"},
		{"method sor", "sor"},
	}
	for _, c := range cases {
		out, err := s.Execute("solve chain tip " + c.spec)
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if !strings.Contains(out, "("+c.engine+")") {
			t.Errorf("%q output %q does not name engine %q", c.spec, out, c.engine)
		}
		got := s.WS.Solution("chain").U
		for i := range ref {
			if math.Abs(got[i]-ref[i]) > 1e-6*scale {
				t.Errorf("%q: dof %d differs: %g vs %g", c.spec, i, got[i], ref[i])
				break
			}
		}
	}
	// Unknown names fail at parse time with the registry listed.
	if _, err := s.Execute("solve chain tip method gauss"); !errors.Is(err, fem2.ErrUsage) {
		t.Errorf("unknown method error = %v, want ErrUsage", err)
	}
	if _, err := s.Execute("solve chain tip method cg precond ilu"); !errors.Is(err, fem2.ErrUsage) {
		t.Errorf("unknown precond error = %v, want ErrUsage", err)
	}
}

// TestSolveCancelledThroughFacade checks the facade surfaces the shared
// cancellation taxonomy end to end.
func TestSolveCancelledThroughFacade(t *testing.T) {
	m, err := fem2.RectGrid("c", fem2.RectGridOpts{NX: 8, NY: 8, W: 8, H: 8, Mat: fem2.Steel(), ClampLeft: true})
	if err != nil {
		t.Fatal(err)
	}
	ls := fem.EndLoad("tip", fem2.RectGridOpts{NX: 8, NY: 8, W: 8, H: 8}, 0, -100)
	ctx, cancel := context.WithCancel(context.Background())
	opts := fem2.SolveOpts{Backend: fem2.BackendCG, Tol: 1e-14,
		OnIteration: func(iter int, _ float64) {
			if iter == 1 {
				cancel()
			}
		}}
	if _, err := fem2.Solve(ctx, m, ls, opts); !errors.Is(err, fem2.ErrCancelled) {
		t.Errorf("cancelled solve returned %v, want ErrCancelled", err)
	}
}

func TestProgrammaticAPIMatchesCommandAPI(t *testing.T) {
	// Build and solve the same model through the Go API and through
	// the command language; displacements must agree exactly.
	o := fem2.RectGridOpts{NX: 6, NY: 4, W: 6, H: 4, Mat: fem2.Steel(), ClampLeft: true}
	m, err := fem2.RectGrid("plate", o)
	if err != nil {
		t.Fatal(err)
	}
	ls := fem.EndLoad("tip", o, 0, -500)
	apiSol, err := fem2.Solve(context.Background(), m, ls, fem2.SolveOpts{Backend: fem2.BackendCholesky})
	if err != nil {
		t.Fatal(err)
	}

	sys, _ := fem2.New()
	s := sys.Session("u")
	for _, cmd := range []string{
		"generate grid plate 6 4 6 4 clamp-left",
		"load plate tip endload 0 -500",
		"solve plate tip method cholesky",
	} {
		if _, err := s.Execute(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	cmdSol := s.WS.Solution("plate")
	if len(cmdSol.U) != len(apiSol.U) {
		t.Fatalf("dof counts differ: %d vs %d", len(cmdSol.U), len(apiSol.U))
	}
	for i := range apiSol.U {
		if math.Abs(apiSol.U[i]-cmdSol.U[i]) > 1e-12 {
			t.Fatalf("dof %d differs: %g vs %g", i, apiSol.U[i], cmdSol.U[i])
		}
	}
}

func TestLayerSpecsAndGrammarsExported(t *testing.T) {
	layers := fem2.FEM2Layers()
	if len(layers) != 4 {
		t.Fatalf("layers = %d", len(layers))
	}
	grammars := fem2.AllLevelGrammars()
	var names []string
	for name, g := range grammars {
		names = append(names, name)
		if errs := g.WellFormed(); len(errs) > 0 {
			t.Errorf("grammar %s: %v", name, errs)
		}
	}
	slices.Sort(names)
	if want := []string{"auvm-model", "navm-window", "spvm-activation", "spvm-message"}; !slices.Equal(names, want) {
		t.Errorf("grammars = %v, want %v", names, want)
	}
	// Each grammar defines the data objects of exactly one layer, and
	// every grammar a layer names exists.
	namedBy := map[string][]string{}
	for _, l := range layers {
		for _, g := range l.Grammars {
			if grammars[g] == nil {
				t.Errorf("layer %s names unknown grammar %q", l.Level, g)
			}
			namedBy[g] = append(namedBy[g], l.Level.String())
		}
	}
	for _, name := range names {
		if len(namedBy[name]) != 1 {
			t.Errorf("grammar %s is named by layers %v, want exactly one", name, namedBy[name])
		}
	}
	if fem2.LevelAUVM.String() != "AUVM" || fem2.LevelARCH.String() != "ARCH" {
		t.Error("level names wrong")
	}
}

func TestStressRecoveryThroughFacade(t *testing.T) {
	m, err := fem2.CantileverTruss("tr", 3, 100, 80, fem2.Steel())
	if err != nil {
		t.Fatal(err)
	}
	ls := &fem2.LoadSet{Name: "tip", Entries: []fem.LoadEntry{{DOF: fem.DOF(3, 1), Value: -100}}}
	sol, err := fem2.Solve(context.Background(), m, ls, fem2.SolveOpts{Backend: fem2.BackendCG})
	if err != nil {
		t.Fatal(err)
	}
	st, err := fem2.Stresses(m, sol)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != len(m.Elements) {
		t.Errorf("stresses for %d of %d elements", len(st), len(m.Elements))
	}
}

func TestDesignIteratorThroughFacade(t *testing.T) {
	small := fem2.DefaultConfig()
	small.Clusters = 1
	small.PEsPerCluster = 2
	big := fem2.DefaultConfig()
	it := &fem2.DesignIterator{
		Candidates: []fem2.Config{small, big},
		Workload: func(sys *fem2.System) error {
			s := sys.Session("e")
			for _, c := range []string{
				"generate grid g 8 4 8 4 clamp-left",
				"load g l endload 0 -1",
				"solve g l parallel 4",
			} {
				if _, err := s.Execute(c); err != nil {
					return err
				}
			}
			return nil
		},
	}
	best, history, err := it.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Fatalf("history = %d", len(history))
	}
	if best.Config.Clusters != big.Clusters {
		t.Errorf("winner = %d clusters", best.Config.Clusters)
	}
}

func ExampleSession() {
	sys, _ := fem2.New()
	s := sys.Session("engineer")
	out, _ := s.Execute("generate grid panel 4 4 4 4 clamp-left")
	fmt.Println(out)
	// Output: generated grid "panel": 25 nodes, 32 elements
}

func TestPartitionExportedAndShaped(t *testing.T) {
	o := fem2.RectGridOpts{NX: 8, NY: 8, W: 8, H: 8, Mat: fem2.Steel(), ClampLeft: true}
	m, _ := fem2.RectGrid("p", o)
	asm, err := fem.Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	ls := fem.EndLoad("l", o, 1, 0)
	_, index := m.FreeDOFs()
	b, _ := m.RHS(ls, index, len(asm.Free))
	d, err := fem2.Partition(asm.K, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.P != 4 || d.TotalHaloWords() == 0 {
		t.Errorf("partition P=%d halo=%d", d.P, d.TotalHaloWords())
	}
}

func TestFunctionalOptions(t *testing.T) {
	sys, err := fem2.New(
		fem2.WithClusters(2),
		fem2.WithPEsPerCluster(4),
		fem2.WithSharedMemoryWords(1<<16),
		fem2.WithCostModel(100, 2, 1, 25),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Machine.Clusters()); got != 2 {
		t.Errorf("clusters = %d, want 2", got)
	}
	// WithConfig replaces wholesale; later options still apply.
	cfg := fem2.DefaultConfig()
	cfg.Clusters = 8
	sys2, err := fem2.New(fem2.WithConfig(cfg), fem2.WithPEsPerCluster(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys2.Machine.Clusters()); got != 8 {
		t.Errorf("clusters = %d, want 8", got)
	}
	// Invalid options surface the arch validation error.
	if _, err := fem2.New(fem2.WithClusters(0)); err == nil {
		t.Error("zero clusters accepted")
	}
	// No options at all is the default machine.
	if _, err := fem2.New(); err != nil {
		t.Errorf("New(): %v", err)
	}
}

func TestTypedCommandFacade(t *testing.T) {
	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Session("typed")
	ctx := context.Background()

	// Parse produces the re-exported command types.
	cmd, err := fem2.Parse("solve g l parallel 2")
	if err != nil {
		t.Fatal(err)
	}
	if sc, ok := cmd.(fem2.SolveCommand); !ok || sc.Parallel != 2 {
		t.Fatalf("Parse returned %#v", cmd)
	}

	// The enum kinds and constants are usable without string literals.
	var _ fem2.SolveMethod = fem2.SolveCG
	var _ fem2.DisplayKind = fem2.DisplayStresses
	if cmd := (fem2.ListCommand{What: fem2.ListWorkspace}); cmd.String() != "list workspace" {
		t.Errorf("list command renders %q", cmd.String())
	}

	// The typed flow end to end, with typed result access.
	for _, c := range []fem2.Command{
		fem2.GenerateGrid{Name: "g", NX: 6, NY: 4, W: 6, H: 4, ClampLeft: true},
		fem2.EndLoad{Model: "g", Set: "l", FY: -100},
	} {
		if _, err := s.Do(ctx, c); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
	res, err := s.Do(ctx, fem2.SolveCommand{Model: "g", Set: "l", Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := res.(*fem2.SolveResult)
	if !ok {
		t.Fatalf("solve returned %T", res)
	}
	if sr.Parallel != 4 || sr.Iterations == 0 || sr.Makespan == 0 || sr.MaxDisp <= 0 {
		t.Errorf("solve result = %+v", sr)
	}

	// Every verb's reply is assertable through the facade aliases — the
	// reason the result types are re-exported (e.g. a new node's index
	// feeds the next AddBar without parsing text).
	res, err = s.Do(ctx, fem2.Define{Name: "hand"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.(*fem2.DefineResult); !ok {
		t.Errorf("define returned %T", res)
	}
	res, err = s.Do(ctx, fem2.AddNode{Model: "hand", X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	if nr, ok := res.(*fem2.NodeResult); !ok || nr.ID != 0 {
		t.Errorf("node returned %#v", res)
	}

	// The error taxonomy is visible through the facade.
	if _, err := s.Do(ctx, fem2.RetrieveCommand{Name: "ghost"}); !errors.Is(err, fem2.ErrNotFound) {
		t.Errorf("retrieve ghost: %v", err)
	}
	if _, err := fem2.Parse("solve"); !errors.Is(err, fem2.ErrUsage) {
		t.Errorf("bad parse: %v", err)
	}
	cancelledCtx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Do(cancelledCtx, fem2.ListCommand{What: "db"}); !errors.Is(err, fem2.ErrCancelled) {
		t.Errorf("cancelled Do: %v", err)
	}
	if _, err := s.Do(ctx, fem2.QuitCommand{}); !errors.Is(err, fem2.ErrQuit) {
		t.Errorf("quit: %v", err)
	}
}

func TestRunAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tabs, err := fem2.RunAllExperiments()
	if err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for _, tab := range tabs {
		all.WriteString(tab.String())
	}
	for _, want := range []string{"E1", "E11", "design-method"} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("experiment output missing %q", want)
		}
	}
}
