package auvm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/fem"
	"repro/internal/linalg"
	"repro/internal/navm"
	"repro/internal/obs"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	return NewSession("alice", NewDatabase())
}

// mustExec runs a command and fails the test on error.
func mustExec(t *testing.T, s *Session, line string) string {
	t.Helper()
	out, err := s.Execute(line)
	if err != nil {
		t.Fatalf("command %q: %v", line, err)
	}
	return out
}

func TestHelpAndUnknown(t *testing.T) {
	s := newSession(t)
	if out := mustExec(t, s, "help"); !strings.Contains(out, "solve") {
		t.Error("help missing solve")
	}
	if _, err := s.Execute("frobnicate"); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("unknown command: %v", err)
	}
	// Blank lines and comments are no-ops.
	if out := mustExec(t, s, ""); out != "" {
		t.Error("blank line produced output")
	}
	if out := mustExec(t, s, "# comment"); out != "" {
		t.Error("comment produced output")
	}
}

func TestQuit(t *testing.T) {
	s := newSession(t)
	_, err := s.Execute("quit")
	if !errors.Is(err, ErrQuit) {
		t.Errorf("quit: %v", err)
	}
}

func TestDefineNodeElementFixSolveByHand(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "define structure beam")
	mustExec(t, s, "material 200000 0.3 10 100")
	// A two-bar chain along x.
	mustExec(t, s, "node beam 0 0")
	mustExec(t, s, "node beam 100 0")
	mustExec(t, s, "node beam 200 0")
	mustExec(t, s, "element bar beam 0 1")
	mustExec(t, s, "element bar beam 1 2")
	mustExec(t, s, "fix node beam 0")
	mustExec(t, s, "fix dof beam 3") // y of node 1
	mustExec(t, s, "fix dof beam 5") // y of node 2
	mustExec(t, s, "load beam pull 4 1000")
	out := mustExec(t, s, "solve beam pull")
	if !strings.Contains(out, "solved") {
		t.Errorf("solve output %q", out)
	}
	sol := s.WS.Solution("beam")
	if sol == nil {
		t.Fatal("no solution in workspace")
	}
	// u(tip) = P*L/(E*A) = 1000*200/(200000*100).
	want := 1000.0 * 200 / (200000 * 100)
	if got := sol.U[fem.DOF(2, 0)]; math.Abs(got-want) > 1e-12 {
		t.Errorf("tip displacement %g, want %g", got, want)
	}
	out = mustExec(t, s, "stresses beam")
	if !strings.Contains(out, "von Mises") {
		t.Errorf("stresses output %q", out)
	}
	if got := mustExec(t, s, "display displacements beam"); !strings.Contains(got, "|u|∞") {
		t.Errorf("display displacements %q", got)
	}
	if got := mustExec(t, s, "display stresses beam"); !strings.Contains(got, "von Mises") {
		t.Errorf("display stresses %q", got)
	}
	if got := mustExec(t, s, "display model beam"); !strings.Contains(got, "2 bar") {
		t.Errorf("display model %q", got)
	}
}

func TestGenerateGridEndLoadSolveMethods(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "generate grid plate 4 4 4 4 clamp-left")
	mustExec(t, s, "load plate shear endload 0 -500")
	outD := mustExec(t, s, "solve plate shear method cholesky")
	solD := s.WS.Solution("plate").U
	mustExec(t, s, "solve plate shear method cg")
	solCG := s.WS.Solution("plate").U
	var maxDiff float64
	for i := range solD {
		if d := math.Abs(solD[i] - solCG[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-5 {
		t.Errorf("cholesky vs cg differ by %g", maxDiff)
	}
	if !strings.Contains(outD, "max |u|") {
		t.Errorf("solve output %q", outD)
	}
}

func TestGenerateTrussAndBar(t *testing.T) {
	s := newSession(t)
	if out := mustExec(t, s, "generate truss tr 4 1000 800"); !strings.Contains(out, "members") {
		t.Errorf("truss output %q", out)
	}
	mustExec(t, s, "load tr tip 9 -10000")
	mustExec(t, s, "solve tr tip")
	if out := mustExec(t, s, "generate bar chain 10 100"); !strings.Contains(out, "10 segments") {
		t.Errorf("bar output %q", out)
	}
}

func TestSolveSubstructures(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "generate grid plate 8 4 8 4 clamp-left")
	mustExec(t, s, "load plate tip endload 0 -100")
	mustExec(t, s, "solve plate tip method cholesky")
	ref := s.WS.Solution("plate").U
	mustExec(t, s, "solve plate tip substructures 4")
	got := s.WS.Solution("plate").U
	var maxDiff float64
	for i := range ref {
		if d := math.Abs(ref[i] - got[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-8 {
		t.Errorf("substructured differs by %g", maxDiff)
	}
}

func TestSolveParallelThroughSession(t *testing.T) {
	s := newSession(t)
	cfg := arch.DefaultConfig()
	cfg.Clusters = 2
	cfg.PEsPerCluster = 4
	rt := navm.NewRuntime(arch.MustNew(cfg))
	rt.AttachInstrumentation(obs.New())
	s.RT = rt
	mustExec(t, s, "generate grid plate 6 4 6 4 clamp-left")
	mustExec(t, s, "load plate tip endload 0 -100")
	out := mustExec(t, s, "solve plate tip parallel 4")
	if !strings.Contains(out, "parallel on 4 workers") || !strings.Contains(out, "makespan") {
		t.Errorf("parallel solve output %q", out)
	}
	// Parallel solve without a machine fails cleanly.
	s2 := newSession(t)
	mustExec(t, s2, "generate grid p 2 2 2 2 clamp-left")
	mustExec(t, s2, "load p l endload 1 0")
	if _, err := s2.Execute("solve p l parallel 2"); err == nil {
		t.Error("parallel solve without machine accepted")
	}
}

// TestParallelZeroLoadReportsItsCost: a zero load ends a distributed
// solve before its first iteration, and the reply is still the parallel
// one — the workers, no iterations, the makespan the check of the load's
// norm cost — and that check's flops reach navm.flops.
// TestJacobiDivergenceStopsAtOnce: plain Jacobi diverges on the clamped
// plate, and the solve, sequential and on four workers, reports the
// divergence at the first non-finite residual (iteration 526 of a 33 600
// budget) instead of running out its budget.
func TestJacobiDivergenceStopsAtOnce(t *testing.T) {
	s := newSession(t)
	s.RT = navm.NewRuntime(arch.MustNew(arch.DefaultConfig()))
	mustExec(t, s, "generate grid g 12 6 12 6 clamp-left")
	mustExec(t, s, "load g l endload 0 -1000")
	for _, line := range []string{"solve g l method jacobi", "solve g l method jacobi parallel 4"} {
		_, err := s.Execute(line)
		var ce *linalg.ConvergenceError
		if !errors.As(err, &ce) || !ce.Diverged || ce.Iterations >= 1000 {
			t.Errorf("%s: %v (%+v), want divergence reported below iteration 1000", line, err, ce)
		}
	}
}

func TestParallelZeroLoadReportsItsCost(t *testing.T) {
	s := newSession(t)
	rt := navm.NewRuntime(arch.MustNew(arch.DefaultConfig()))
	reg := obs.New()
	rt.AttachInstrumentation(reg)
	s.RT = rt
	mustExec(t, s, "generate grid g 4 2 4 2 clamp-left")
	mustExec(t, s, "load g z endload 0 0")
	for _, method := range []string{"cg", "jacobi", "sor"} {
		out := mustExec(t, s, "solve g z parallel 4 method "+method)
		want := fmt.Sprintf(`solved "g"/"z" in parallel on 4 workers (%s): 0 iterations, 0 halo words, makespan 120 cycles; max |u| = 0 at dof -1`, method)
		if out != want {
			t.Errorf("zero load, %s:\n got %s\nwant %s", method, out, want)
		}
	}
	if got := reg.Counter(obs.NAVMFlops).Load(); got != 3*2*24 {
		t.Errorf("navm.flops = %d, want three norms of a 24-dof load (144)", got)
	}
}

// TestSolveParallelReportsWorkersUsed: navm.Partition makes at most one
// row block per free dof, so the count a parallel solve reports — on the
// display line and in SolveResult.Parallel — is the partition's, not the
// one asked for.  The 3×3 plate clamped on the left has 24 free dofs.
func TestSolveParallelReportsWorkersUsed(t *testing.T) {
	s := newSession(t)
	rt := navm.NewRuntime(arch.MustNew(arch.DefaultConfig()))
	rt.AttachInstrumentation(obs.New())
	s.RT = rt
	mustExec(t, s, "generate grid plate 3 3 3 3 clamp-left")
	mustExec(t, s, "load plate tip endload 0 -100")
	for _, tc := range []struct{ asked, want int }{
		{99999, 24}, // over-asked: clamped to the free-dof count
		{24, 24},    // exact
		{4, 4},      // under-asked
	} {
		res, err := s.Do(context.Background(), command.Solve{Model: "plate", Set: "tip", Parallel: tc.asked})
		if err != nil {
			t.Fatalf("parallel %d: %v", tc.asked, err)
		}
		if got := res.(*command.SolveResult).Parallel; got != tc.want {
			t.Errorf("parallel %d: SolveResult.Parallel = %d, want %d", tc.asked, got, tc.want)
		}
		if want := fmt.Sprintf("in parallel on %d workers", tc.want); !strings.Contains(res.String(), want) {
			t.Errorf("parallel %d renders %q, want %q in it", tc.asked, res.String(), want)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	s := newSession(t)
	bad := []string{
		"define structure",            // missing name
		"material 1 2 3",              // missing arg
		"material x 2 3 4",            // non-numeric
		"material -1 0 1 1",           // negative modulus
		"generate grid g 0 1 1 1",     // zero cells
		"generate grid g a b c d",     // non-numeric
		"generate sphere s 1",         // unknown kind
		"node ghost 1 2",              // no model
		"element bar ghost 0 1",       // no model
		"fix node ghost 0",            // no model
		"loadset ghost ls",            // no model
		"solve ghost ls",              // no model
		"stresses ghost",              // no model
		"display displacements ghost", // no solution
		"display wat ghost",           // unknown display
		"store ghost",                 // no model
		"retrieve ghost",              // not in DB
		"delete ghost",                // not in DB
		"list wat",                    // unknown list
	}
	for _, cmd := range bad {
		if _, err := s.Execute(cmd); err == nil {
			t.Errorf("command %q did not fail", cmd)
		}
	}
	// Duplicate define fails.
	mustExec(t, s, "define structure m")
	if _, err := s.Execute("define structure m"); err == nil {
		t.Error("duplicate define accepted")
	}
	// Solve without load set.
	mustExec(t, s, "generate grid g2 2 2 2 2 clamp-left")
	if _, err := s.Execute("solve g2 nope"); err == nil {
		t.Error("solve without loadset accepted")
	}
	// Stresses before solve.
	if _, err := s.Execute("stresses g2"); err == nil {
		t.Error("stresses before solve accepted")
	}
	// endload on a hand-built model.
	mustExec(t, s, "define structure hand")
	if _, err := s.Execute("load hand ls endload 1 0"); err == nil {
		t.Error("endload on non-grid accepted")
	}
}

func TestStoreRetrieveRoundTripThroughDB(t *testing.T) {
	db := NewDatabase()
	alice := NewSession("alice", db)
	mustExec(t, alice, "generate truss bridge 4 1000 800")
	mustExec(t, alice, "load bridge tip 9 -5000")
	mustExec(t, alice, "store bridge")

	// Bob retrieves into his own workspace and solves; the database is
	// the shared data path between users.
	bob := NewSession("bob", db)
	mustExec(t, bob, "retrieve bridge")
	out := mustExec(t, bob, "solve bridge tip")
	if !strings.Contains(out, "solved") {
		t.Errorf("bob solve %q", out)
	}
	// Bob's copy is independent of Alice's.
	bob.WS.Model("bridge").AddNode(9999, 9999)
	if len(alice.WS.Model("bridge").Nodes) == len(bob.WS.Model("bridge").Nodes) {
		t.Error("retrieve shares storage with the original workspace")
	}
	// Listing shows the model.
	if out := mustExec(t, alice, "list db"); !strings.Contains(out, "bridge") {
		t.Errorf("list db %q", out)
	}
	if out := mustExec(t, alice, "list workspace"); !strings.Contains(out, "bridge") {
		t.Errorf("list workspace %q", out)
	}
	mustExec(t, alice, "delete bridge")
	if _, err := bob.Execute("retrieve bridge"); !errors.Is(err, ErrNotFound) {
		t.Errorf("retrieve after delete: %v", err)
	}
}

func TestDatabaseSerializesMixedElements(t *testing.T) {
	db := NewDatabase()
	m := fem.NewModel("mixed")
	m.AddNode(0, 0)
	m.AddNode(1, 0)
	m.AddNode(0, 1)
	m.AddElement(&fem.Bar{N1: 0, N2: 1, Mat: fem.Steel()})
	m.AddElement(&fem.CST{N1: 0, N2: 1, N3: 2, Mat: fem.Steel()})
	m.AddElement(&fem.Bar{N1: 1, N2: 2, Mat: fem.Steel()})
	m.FixNode(0)
	m.FixDOF(3)
	if err := db.Store(m, []*fem.LoadSet{{Name: "l", Entries: []fem.LoadEntry{{DOF: 4, Value: 2}}}}); err != nil {
		t.Fatal(err)
	}
	got, loads, err := db.Retrieve("mixed")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Elements) != 3 {
		t.Fatalf("elements = %d", len(got.Elements))
	}
	// Element order preserved.
	if got.Elements[0].Kind() != "bar" || got.Elements[1].Kind() != "cst" || got.Elements[2].Kind() != "bar" {
		t.Error("element order lost")
	}
	if !got.Fixed(0) || !got.Fixed(1) || !got.Fixed(3) || got.Fixed(4) {
		t.Error("constraints lost")
	}
	if len(loads) != 1 || loads[0].Entries[0].Value != 2 {
		t.Errorf("loads = %+v", loads)
	}
	if _, size, err := db.List(); err != nil || size == 0 {
		t.Errorf("List() size = %d, %v", size, err)
	}
}

func TestWorkspaceAccounting(t *testing.T) {
	s := newSession(t)
	if s.WS.Words() != 0 {
		t.Error("fresh workspace not empty")
	}
	mustExec(t, s, "generate grid g 3 3 3 3 clamp-left")
	w1 := s.WS.Words()
	if w1 == 0 {
		t.Error("model contributes no words")
	}
	mustExec(t, s, "load g l endload 1 0")
	loaded := s.WS.Words()
	mustExec(t, s, "solve g l")
	if s.WS.Words() <= loaded {
		t.Error("solution did not grow the workspace")
	}
	mustExec(t, s, "generate grid g 3 3 3 3 clamp-left")
	if got := s.WS.Words(); got != loaded {
		t.Errorf("workspace after the model is replaced = %d words, want %d (solution dropped, load set kept)", got, loaded)
	}
}

// TestListWorkspaceAllocations bounds what "list workspace" allocates
// with a model in the workspace: a few allocations for the reply, none
// per element, so the 40×24 plate stays under the 8×6 plate's ceiling.
func TestListWorkspaceAllocations(t *testing.T) {
	// 9 for either plate on go1.24; under -race sync.Pool drops some of
	// fmt's printers, which reads one more now and then.
	const ceiling = 12
	for _, size := range []string{"8 6 8 6", "40 24 40 24"} {
		s := newSession(t)
		mustExec(t, s, "generate grid g "+size+" clamp-left")
		mustExec(t, s, "load g l endload 1 0")
		if n := testing.AllocsPerRun(50, func() { mustExec(t, s, "list workspace") }); n > ceiling {
			t.Errorf("list workspace with a %s grid allocates %v times, ceiling %d", size, n, ceiling)
		}
	}
}

func TestAUVMOperationCounting(t *testing.T) {
	s := newSession(t)
	s.Obs = obs.New()
	mustExec(t, s, "generate grid g 2 2 2 2 clamp-left")
	mustExec(t, s, "load g l endload 1 0")
	mustExec(t, s, "solve g l")
	if got := s.Obs.Counter(obs.AUVMOps).Load(); got != 3 {
		t.Errorf("AUVM ops = %d, want 3", got)
	}
}

func TestRunREPL(t *testing.T) {
	s := newSession(t)
	script := `generate grid g 2 2 2 2 clamp-left
load g l endload 10 0
solve g l
bogus command
quit
solve g l`
	var out strings.Builder
	if err := s.Run(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "solved") {
		t.Errorf("REPL output missing solve:\n%s", text)
	}
	if !strings.Contains(text, "error:") {
		t.Errorf("REPL output missing error report:\n%s", text)
	}
	if !strings.Contains(text, "bye") {
		t.Errorf("REPL did not quit:\n%s", text)
	}
	// Nothing after quit ran.
	if strings.Count(text, "solved") != 1 {
		t.Errorf("commands after quit executed:\n%s", text)
	}
}

// writes records each Write it is given.
type writes []string

func (w *writes) Write(p []byte) (int, error) { *w = append(*w, string(p)); return len(p), nil }

// TestREPLWritesACommandOnce: a command's output line and error line
// reach the writer in one Write, so a writer shared with another
// goroutine (the client's event printer) never sees them split; a line
// with neither writes nothing.
func TestREPLWritesACommandOnce(t *testing.T) {
	replies := map[string]struct {
		out string
		err error
	}{
		"both": {"partial", errors.New("boom")},
		"out":  {"fine", nil},
		"err":  {"", errors.New("bad")},
		"none": {"", nil},
		"quit": {"bye", ErrQuit},
	}
	var w writes
	err := REPL(context.Background(), strings.NewReader("both\nnone\nout\nerr\nquit\nout\n"), &w,
		func(_ context.Context, line string) (string, error) { return replies[line].out, replies[line].err })
	if err != nil {
		t.Fatal(err)
	}
	want := writes{"partial\nerror: boom\n", "fine\n", "error: bad\n", "bye\n"}
	if !slices.Equal(w, want) {
		t.Errorf("writes = %q, want %q", w, want)
	}
}

func TestConcurrentMultiUserDatabase(t *testing.T) {
	db := NewDatabase()
	const users = 8
	var wg sync.WaitGroup
	errs := make([]error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			s := NewSession(string(rune('a'+u)), db)
			name := "m" + string(rune('a'+u))
			cmds := []string{
				"generate grid " + name + " 3 3 3 3 clamp-left",
				"load " + name + " l endload 5 0",
				"solve " + name + " l",
				"store " + name,
				"retrieve " + name,
			}
			for _, c := range cmds {
				if _, err := s.Execute(c); err != nil {
					errs[u] = err
					return
				}
			}
		}(u)
	}
	wg.Wait()
	for u, err := range errs {
		if err != nil {
			t.Errorf("user %d: %v", u, err)
		}
	}
	if names, _, err := db.List(); err != nil || len(names) != users {
		t.Errorf("db has %d models (%v), want %d", len(names), err, users)
	}
}

func TestMaxHelpers(t *testing.T) {
	sol := &fem.Solution{U: []float64{0, -3, 2}}
	dof, v := MaxDisplacement(sol)
	if dof != 1 || v != 3 {
		t.Errorf("MaxDisplacement = %d, %g", dof, v)
	}
	elem, vm := MaxVonMises([][]float64{{1}, {-5}, {2}})
	if elem != 1 || vm != 5 {
		t.Errorf("MaxVonMises = %d, %g", elem, vm)
	}
}
