package auvm

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/fem"
	"repro/internal/navm"
	"repro/internal/obs"
)

// TestMetricsLessSession is the regression test for sessions with no
// registry attached: every command class, including malformed lines,
// must work with s.Obs == nil.
func TestMetricsLessSession(t *testing.T) {
	s := NewSession("bare", NewDatabase())
	if s.Obs != nil {
		t.Fatal("NewSession attached a registry")
	}
	for _, line := range []string{
		"generate grid g 3 3 3 3 clamp-left",
		"load g l endload 0 -10",
		"solve g l",
		"stresses g",
		"store g",
		"list db",
		"list workspace",
	} {
		if _, err := s.Execute(line); err != nil {
			t.Fatalf("metrics-less %q: %v", line, err)
		}
	}
	// Malformed lines charge the (absent) auvm.ops counter too.
	if _, err := s.Execute("frobnicate"); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("metrics-less parse error: %v", err)
	}
}

// TestDoTypedCommands drives Do with struct-literal commands and reads
// the typed result fields — the programmatic path with no text round
// trip.
func TestDoTypedCommands(t *testing.T) {
	s := newSession(t)
	ctx := context.Background()

	res, err := s.Do(ctx, command.GenerateGrid{Name: "g", NX: 4, NY: 3, W: 4, H: 3, ClampLeft: true})
	if err != nil {
		t.Fatal(err)
	}
	gr := res.(*command.GenerateResult)
	if gr.Nodes != 20 || gr.Elements != 24 {
		t.Errorf("generate result = %+v", gr)
	}

	if _, err := s.Do(ctx, command.EndLoad{Model: "g", Set: "tip", FY: -100}); err != nil {
		t.Fatal(err)
	}
	res, err = s.Do(ctx, command.Solve{Model: "g", Set: "tip", Method: command.MethodCG})
	if err != nil {
		t.Fatal(err)
	}
	sr := res.(*command.SolveResult)
	if sr.Backend != "cg" || sr.Iterations <= 0 || sr.Residual <= 0 || sr.MaxDisp <= 0 || sr.MaxDOF < 0 {
		t.Errorf("solve result = %+v", sr)
	}

	// Do's result String is exactly what Execute returns for the same
	// command line: the REPL is a thin adapter.
	s2 := newSession(t)
	for _, line := range []string{
		"generate grid g 4 3 4 3 clamp-left",
		"load g tip endload 0 -100",
	} {
		if _, err := s2.Execute(line); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s2.Execute("solve g tip method cg")
	if err != nil {
		t.Fatal(err)
	}
	if out != sr.String() {
		t.Errorf("Execute output %q != Do result rendering %q", out, sr.String())
	}
}

// TestDoCancelledContext checks Do refuses work once its context is
// done, with an error classified by both the shared taxonomy and the
// context package.
func TestDoCancelledContext(t *testing.T) {
	s := newSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Do(ctx, command.List{What: command.ListDB}); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("cancelled Do: %v", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Do lost the context error: %v", err)
	}
	// A live context works.
	if _, err := s.Do(context.Background(), command.List{What: command.ListDB}); err != nil {
		t.Errorf("live Do: %v", err)
	}
}

// TestDoPointerCommand checks pointer-spelled commands dispatch the
// same as value commands.
func TestDoPointerCommand(t *testing.T) {
	s := newSession(t)
	ctx := context.Background()
	if _, err := s.Do(ctx, &command.GenerateGrid{Name: "g", NX: 2, NY: 2, W: 2, H: 2, ClampLeft: true}); err != nil {
		t.Fatalf("pointer command: %v", err)
	}
	res, err := s.Do(ctx, &command.List{What: command.ListWorkspace})
	if err != nil {
		t.Fatalf("pointer list: %v", err)
	}
	if lr := res.(*command.ListResult); len(lr.Names) != 1 || lr.Names[0] != "g" {
		t.Errorf("pointer list result = %+v", lr)
	}
}

// TestDoQuit checks the quit protocol: QuitResult plus ErrQuit.
func TestDoQuit(t *testing.T) {
	s := newSession(t)
	res, err := s.Do(context.Background(), command.Quit{})
	if !errors.Is(err, ErrQuit) {
		t.Errorf("quit error = %v", err)
	}
	if res == nil || res.String() != "bye" {
		t.Errorf("quit result = %v", res)
	}
}

// TestErrorTaxonomy checks errors.Is classification across the layers:
// missing objects, malformed requests, for both entry points.
func TestErrorTaxonomy(t *testing.T) {
	s := newSession(t)
	ctx := context.Background()

	if _, err := s.Do(ctx, command.Solve{Model: "ghost", Set: "l"}); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("solve on missing model: %v", err)
	}
	if _, err := s.Execute("retrieve ghost"); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("retrieve missing model: %v", err)
	}
	if _, err := s.Execute("display displacements ghost"); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("display without solution: %v", err)
	}
	if _, err := s.Execute("list wat"); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("bad list target: %v", err)
	}
	// A programmatically built command bypasses the parser; the
	// interpreter still classifies the bad method as a usage error.
	mustExec(t, s, "generate grid g 2 2 2 2 clamp-left")
	mustExec(t, s, "load g l endload 1 0")
	if _, err := s.Do(ctx, command.Solve{Model: "g", Set: "l", Method: "gauss"}); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("bad programmatic method: %v", err)
	}
	// Interpreter-level rejections of ineligible requests classify too.
	if _, err := s.Execute("material -1 0 1 1"); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("negative modulus: %v", err)
	}
	mustExec(t, s, "define structure hand")
	// A name collision is a state conflict, deliberately outside the
	// taxonomy: it must error without classifying as usage/not-found.
	if _, err := s.Execute("define structure hand"); err == nil ||
		errors.Is(err, errs.ErrUsage) || errors.Is(err, errs.ErrNotFound) {
		t.Errorf("duplicate define: %v", err)
	}
	if _, err := s.Execute("load hand ls endload 1 0"); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("endload on non-grid: %v", err)
	}
}

// TestNaNStiffnessFailsDirectSolves pins the pivot test of the direct
// backends: a NaN modulus makes every stiffness entry NaN, which compares
// false with zero both ways — so the factorisation must ask "is the pivot
// positive", not "is it non-positive".  Each direct backend has to report
// the matrix as not positive definite rather than answer a zero
// displacement field at dof -1, leave no solution behind for stresses to
// read, and solve a finite model correctly afterwards in the same
// session.
func TestNaNStiffnessFailsDirectSolves(t *testing.T) {
	ctx := context.Background()
	grid := command.GenerateGrid{Name: "g", NX: 4, NY: 3, W: 4, H: 3, ClampLeft: true}
	load := command.EndLoad{Model: "g", Set: "l", FY: -1000}
	for _, method := range []command.Method{command.MethodCholesky, command.MethodCholeskyRCM, command.MethodCholeskyEnv} {
		t.Run(string(method), func(t *testing.T) {
			s := newSession(t)
			solve := command.Solve{Model: "g", Set: "l", Method: method}
			for _, cmd := range []command.Command{command.SetMaterial{E: math.NaN(), Nu: 0.3, T: 1, A: 1}, grid, load} {
				if _, err := s.Do(ctx, cmd); err != nil {
					t.Fatal(err)
				}
			}
			res, err := s.Do(ctx, solve)
			if err == nil || !strings.Contains(err.Error(), "not positive definite") || !strings.Contains(err.Error(), "pivot NaN") {
				t.Fatalf("solve of a NaN stiffness: result %v, error %v; want not positive definite (pivot NaN)", res, err)
			}
			if _, err := s.Do(ctx, command.Stresses{Model: "g"}); !errors.Is(err, errs.ErrNotFound) {
				t.Errorf("stresses after the failed solve: %v; want no solution", err)
			}
			for _, cmd := range []command.Command{command.SetMaterial{E: 200000, Nu: 0.3, T: 1, A: 1}, grid, load} {
				if _, err := s.Do(ctx, cmd); err != nil {
					t.Fatal(err)
				}
			}
			res, err = s.Do(ctx, solve)
			if err != nil {
				t.Fatalf("finite model after the NaN one: %v", err)
			}
			if sr := res.(*command.SolveResult); math.Abs(sr.MaxDisp-0.05254312377856131) > 1e-12 || sr.MaxDOF != 33 {
				t.Errorf("finite model after the NaN one: max |u| = %v at dof %d, want 0.0525431… at 33", sr.MaxDisp, sr.MaxDOF)
			}
		})
	}
}

// TestUnusableMaterialRefusedByEveryBackend: a material that cannot
// give a positive-definite stiffness — a CST's thickness not positive or
// Poisson's ratio outside (−1, 1), a bar's area not positive — is
// refused where an element's stiffness is evaluated, with one error that
// names the element and the field, whichever backend was asked to solve,
// and leaves no solution behind.  `material` itself accepts the values
// (a plate-only session may leave A at 0).  sor used to answer the t = −1
// plate as solved in 175 iterations, and the other backends each failed
// with a linear-algebra message of their own.
func TestUnusableMaterialRefusedByEveryBackend(t *testing.T) {
	const plate, plateLoad = "generate grid a 3 2 3 2 clamp-left", "load a l endload 0 -1"
	const truss, trussLoad = "generate truss a 4 1000 800", "load a l 9 -10000"
	solves := []string{"method cholesky", "method cholesky-rcm", "method cholesky-env", "method cg", "method jacobi", "method sor", "parallel 2"}
	for _, tc := range []struct{ material, generate, load, field string }{
		{"material 200000 0.3 -1 1", plate, plateLoad, "thickness T = -1;"},
		{"material 200000 0.3 0 1", plate, plateLoad, "thickness T = 0;"},
		{"material 200000 1 1 1", plate, plateLoad, "Poisson's ratio Nu = 1;"},
		{"material 200000 -1 1 1", plate, plateLoad, "Poisson's ratio Nu = -1;"},
		{"material 200000 1.5 1 1", plate, plateLoad, "Poisson's ratio Nu = 1.5;"},
		{"material 200000 0.3 1 0", truss, trussLoad, "area A = 0;"},
		{"material 200000 0.3 1 -1", truss, trussLoad, "area A = -1;"},
	} {
		t.Run(tc.material, func(t *testing.T) {
			var want string
			for _, solve := range solves {
				s := newSession(t)
				rt := navm.NewRuntime(arch.MustNew(arch.DefaultConfig()))
				rt.AttachInstrumentation(obs.New())
				s.RT = rt
				for _, line := range []string{tc.material, tc.generate, tc.load} {
					mustExec(t, s, line)
				}
				out, err := s.Execute("solve a l " + solve)
				if err == nil {
					t.Errorf("%s: answered %q, want the material refused", solve, out)
					continue
				}
				if !errors.Is(err, fem.ErrModel) || !strings.Contains(err.Error(), tc.field) {
					t.Errorf("%s: error %q, want fem.ErrModel naming %q", solve, err, tc.field)
					continue
				}
				if want == "" {
					want = err.Error()
				} else if err.Error() != want {
					t.Errorf("%s: error %q, but %s said %q", solve, err, solves[0], want)
				}
				if _, err := s.Execute("stresses a"); !errors.Is(err, errs.ErrNotFound) {
					t.Errorf("%s: stresses after the refused solve: %v; want no solution", solve, err)
				}
			}
		})
	}
}

// TestSolveObservationZeroAlloc is obs.TestHotPathZeroAlloc's neighbour
// for job.latency.solve.<backend>: once a backend has solved, recording
// the next solve's latency takes no registry lookup and no name
// concatenation — it allocates nothing — with a registry and without.
func TestSolveObservationZeroAlloc(t *testing.T) {
	s, bare := newSession(t), newSession(t)
	s.Obs = obs.New()
	for _, sess := range []*Session{s, bare} {
		mustExec(t, sess, "generate grid g 4 3 4 3 clamp-left")
		mustExec(t, sess, "load g tip endload 0 -100")
		mustExec(t, sess, "solve g tip")
		if n := testing.AllocsPerRun(100, func() { sess.observeSolve("cholesky", time.Microsecond) }); n != 0 {
			t.Errorf("a warm solve's observation allocates %.1f times, want 0", n)
		}
	}
	// One real solve, AllocsPerRun's warm-up and its 100 runs.
	if got := s.Obs.Histogram(obs.JobLatencySolvePrefix + "cholesky").Count(); got != 102 {
		t.Errorf("%scholesky observed %d times, want 102", obs.JobLatencySolvePrefix, got)
	}
}
