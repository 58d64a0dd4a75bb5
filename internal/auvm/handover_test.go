package auvm

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/command"
	"repro/internal/fem"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// modelSpec is everything that decides a generated model's topology and
// values in the hand-over tests; two equal specs generate equal models.
type modelSpec struct {
	truss  bool
	nx, ny int // grid cells, or nx bays of a truss
	clamp  bool
	e      float64
}

// topology is spec reduced to what decides the sparsity pattern: not
// the modulus, and for a truss only the bay count.
func (spec modelSpec) topology() modelSpec {
	spec.e = 0
	if spec.truss {
		spec.ny, spec.clamp = 0, false
	}
	return spec
}

// generate issues the commands that put spec's model and a load set "l"
// into s under the name "p", replacing whatever was there.
func (spec modelSpec) generate(t *testing.T, s *Session) {
	t.Helper()
	do := func(c command.Command) {
		t.Helper()
		if _, err := s.Do(context.Background(), c); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
	do(command.SetMaterial{E: spec.e, Nu: 0.3, T: 10, A: 100})
	if spec.truss {
		do(command.GenerateTruss{Name: "p", Bays: spec.nx, BayLen: 1000, Height: 800})
		do(command.DefineLoadSet{Model: "p", Set: "l"})
		do(command.AddLoad{Model: "p", Set: "l", DOF: s.WS.Model("p").NumDOF() - 1, Value: -5000})
		return
	}
	do(command.GenerateGrid{Name: "p", NX: spec.nx, NY: spec.ny, W: float64(spec.nx), H: float64(spec.ny), ClampLeft: spec.clamp})
	if !spec.clamp {
		// Another constraint set on the same grid: pin two corner nodes.
		do(command.FixNode{Model: "p", Node: 0})
		do(command.FixNode{Model: "p", Node: spec.ny})
	}
	do(command.EndLoad{Model: "p", Set: "l", FY: -500})
}

// TestReplacedModelKeepsPlanThroughWorkspace is the seeded search over
// what a session can do to a model name: regenerate it unchanged or with
// a new modulus, at another size, as a truss, with another constraint
// set, retrieve it from the database, restore it from a snapshot, or
// just solve it again.  Every replacement goes through
// Workspace.PutModel; after each step the four backends must answer
// bitwise what a fresh session answers for the same model — Refactored
// and Flops included: a direct backend must refactor exactly when the
// topology or the modulus moved since the step before (it solved then,
// and the factors followed the name here), so where it must not, the
// fresh session solves twice and its warm answer is the reference —
// assemble.symbolic must move exactly when the topology did, and
// assemble.unchanged must count every solve but the first after the
// topology or the modulus moved.
func TestReplacedModelKeepsPlanThroughWorkspace(t *testing.T) {
	methods := []command.Method{command.MethodCholesky, command.MethodCholeskyRCM, command.MethodCholeskyEnv, command.MethodCG}
	rebuilt, inherited := 0, 0
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := NewSession("engineer", NewDatabase())
			s.Obs = obs.New()
			symbolic, reused := s.Obs.Counter(obs.AssembleSymbolic), s.Obs.Counter(obs.AssembleReused)
			unchanged := s.Obs.Counter(obs.AssembleUnchanged)
			ctx := context.Background()
			snap := filepath.Join(t.TempDir(), "ws.snap")

			spec := modelSpec{nx: 3 + rng.Intn(4), ny: 2 + rng.Intn(3), clamp: true, e: 200000}
			spec.generate(t, s)
			var planned modelSpec  // the topology the retained plan was built for
			var assembledE float64 // the modulus the retained matrix was assembled with
			for step := 0; step < 14; step++ {
				var what string
				switch rng.Intn(8) {
				case 0:
					what = "regenerate, new modulus"
					spec.e *= 0.5 + rng.Float64()
					spec.generate(t, s)
				case 1:
					what = "regenerate, unchanged"
					spec.generate(t, s)
				case 2:
					what = "regenerate, other size"
					spec.nx += 1 + rng.Intn(3)
					if spec.nx > 9 {
						spec.nx = 2
					}
					spec.generate(t, s)
				case 3:
					what = "regenerate, grid<->truss"
					spec.truss = !spec.truss
					spec.generate(t, s)
				case 4:
					what = "regenerate, other constraints"
					spec.clamp = !spec.clamp
					spec.generate(t, s)
				case 5:
					what = "store + retrieve"
					for _, c := range []command.Command{command.Store{Model: "p"}, command.Retrieve{Name: "p"}} {
						if _, err := s.Do(ctx, c); err != nil {
							t.Fatal(err)
						}
					}
				case 6:
					what = "snapshot + restore"
					for _, c := range []command.Command{command.Snapshot{Path: snap}, command.Restore{Path: snap}} {
						if _, err := s.Do(ctx, c); err != nil {
							t.Fatal(err)
						}
					}
				default:
					what = "solve again"
				}
				wantSymbolic := symbolic.Load()
				if planned != spec.topology() {
					wantSymbolic++
					rebuilt++
				} else if what != "solve again" {
					inherited++
				}
				wantReused := reused.Load() + int64(len(methods)) - (wantSymbolic - symbolic.Load())
				wantUnchanged := unchanged.Load() + int64(len(methods))
				moved := planned != spec.topology() || assembledE != spec.e
				if moved {
					wantUnchanged-- // the step's first solve assembles, the rest find it unchanged
				}

				fresh := NewSession("fresh", NewDatabase())
				spec.generate(t, fresh)
				for _, method := range methods {
					label := fmt.Sprintf("seed %d step %d (%s) method %s", seed, step, what, method)
					solve := command.Solve{Model: "p", Set: "l", Method: method}
					res, err := s.Do(ctx, solve)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					refRes, err := fresh.Do(ctx, solve)
					if err == nil && !moved && method != command.MethodCG {
						refRes, err = fresh.Do(ctx, solve)
					}
					if err != nil {
						t.Fatalf("%s: fresh session: %v", label, err)
					}
					got, want := res.(*command.SolveResult), refRes.(*command.SolveResult)
					if wantRefactored := moved || method == command.MethodCG; want.Refactored != wantRefactored {
						t.Fatalf("%s: the reference answers Refactored=%v, want %v", label, want.Refactored, wantRefactored)
					}
					if *got != *want {
						t.Fatalf("%s: result\n got %+v\nwant %+v", label, *got, *want)
					}
					u, refU := s.WS.Solution("p").U, fresh.WS.Solution("p").U
					if len(u) != len(refU) {
						t.Fatalf("%s: %d dofs vs fresh %d", label, len(u), len(refU))
					}
					for i := range refU {
						if u[i] != refU[i] {
							t.Fatalf("%s: U[%d] = %.17g vs fresh %.17g", label, i, u[i], refU[i])
						}
					}
				}
				if sy, re, un := symbolic.Load(), reused.Load(), unchanged.Load(); sy != wantSymbolic || re != wantReused || un != wantUnchanged {
					t.Fatalf("seed %d step %d (%s): symbolic %d reused %d unchanged %d, want %d %d %d", seed, step, what, sy, re, un, wantSymbolic, wantReused, wantUnchanged)
				}
				planned, assembledE = spec.topology(), spec.e
			}
		})
	}
	// Guard against a vacuous search: both outcomes must have happened
	// often.
	if rebuilt < 16 || inherited < 16 {
		t.Errorf("%d rebuilds, %d inherited plans: the steps no longer exercise the hand-over", rebuilt, inherited)
	}
}

// TestReplaceModelWhileSolveInFlight replaces a model while a solve of
// the object it displaces is paused mid-iteration (holding its retained
// assembly): PutModel must not wait for it, the replacement must build
// a plan of its own rather than share the value buffer the paused solve
// is reading, and both solves must answer what they answer alone.  Run
// under -race.
func TestReplaceModelWhileSolveInFlight(t *testing.T) {
	plate := func(e float64) (*fem.Model, *fem.LoadSet) {
		mat := fem.Steel()
		mat.E = e
		o := fem.RectGridOpts{NX: 10, NY: 6, W: 10, H: 6, Mat: mat, ClampLeft: true}
		m, err := fem.RectGrid("p", o)
		if err != nil {
			t.Fatal(err)
		}
		return m, fem.EndLoad("l", o, 0, -500)
	}
	ctx := context.Background()
	alone := func(e float64, backend string) *fem.Solution {
		m, ls := plate(e)
		sol, err := fem.Solve(ctx, m, ls, fem.SolveOpts{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	sameU := func(label string, got, want *fem.Solution) {
		t.Helper()
		if got.Residual != want.Residual || len(got.U) != len(want.U) {
			t.Fatalf("%s: residual %g over %d dofs, alone %g over %d", label, got.Residual, len(got.U), want.Residual, len(want.U))
		}
		for i := range want.U {
			if got.U[i] != want.U[i] {
				t.Fatalf("%s: U[%d] = %.17g, alone %.17g", label, i, got.U[i], want.U[i])
			}
		}
	}
	wantOld, wantNext := alone(200000, linalg.BackendCG), alone(70000, linalg.BackendCholeskyEnv)

	w := NewWorkspace()
	old, ls := plate(200000)
	w.PutModel(old)
	// The replaced model holds a plan and a factor for the backend the
	// replacement will ask for: what a hand-over would have moved.
	for _, backend := range []string{linalg.BackendCholeskyEnv, linalg.BackendCG} {
		if _, err := fem.Solve(ctx, old, ls, fem.SolveOpts{Backend: backend}); err != nil {
			t.Fatal(err)
		}
	}

	inFlight, release := make(chan struct{}), make(chan struct{})
	var pause sync.Once
	var oldSol *fem.Solution
	var oldErr error
	solved := make(chan struct{})
	go func() {
		defer close(solved)
		oldSol, oldErr = fem.Solve(ctx, old, ls, fem.SolveOpts{Backend: linalg.BackendCG,
			OnIteration: func(int, float64) {
				pause.Do(func() {
					close(inFlight)
					<-release
				})
			}})
	}()
	<-inFlight

	next, _ := plate(70000)
	reg := obs.New()
	symbolic := reg.Counter(obs.AssembleSymbolic)
	misses := reg.Counter(obs.FactorMisses)
	next.Instrument(reg)
	put := make(chan struct{})
	go func() {
		defer close(put)
		w.PutModel(next)
	}()
	select {
	case <-put:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("PutModel waited for the solve in flight")
	}
	nextSol, err := fem.Solve(ctx, w.Model("p"), ls, fem.SolveOpts{Backend: linalg.BackendCholeskyEnv})
	close(release)
	<-solved
	if err != nil || oldErr != nil {
		t.Fatalf("solve of the replacement: %v; paused solve of the replaced model: %v", err, oldErr)
	}
	if symbolic.Load() != 1 || misses.Load() != 1 || !nextSol.Refactored {
		t.Errorf("the replacement ran %d symbolic phases and %d direct plans, Refactored=%v; want 1 1 true: the busy state must not be handed over",
			symbolic.Load(), misses.Load(), nextSol.Refactored)
	}
	if next.Factors() == old.Factors() || old.Factors().Generation() != 1 {
		t.Error("the replaced model lost its factors to a hand-over that must not have happened")
	}
	sameU("replacement", nextSol, wantNext)
	sameU("replaced model, paused across the replacement", oldSol, wantOld)
}

// TestReplacementDropsSolution: a model replaced under its name by
// generate, retrieve or restore has no solution and no stresses until it
// is solved, so stresses and display cannot answer from the displacements
// of the model it replaced, even when the two have the same dof count.  A
// restore puts back the solution its snapshot carried.
func TestReplacementDropsSolution(t *testing.T) {
	snapDir := t.TempDir()
	solved := func(t *testing.T, s *Session) {
		t.Helper()
		mustExec(t, s, "generate grid g 4 2 4 2 clamp-left")
		mustExec(t, s, "load g l endload 0 -1000")
		mustExec(t, s, "solve g l")
		mustExec(t, s, "stresses g")
	}
	unsolved := func(t *testing.T, s *Session) {
		t.Helper()
		for _, c := range []struct{ line, want string }{
			{"stresses g", "no solution"},
			{"display displacements g", "no solution"},
			{"display stresses g", "no stresses"},
		} {
			line, want := c.line, c.want
			if out, err := s.Execute(line); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s after the replacement: %q, %v; want an error saying %q", line, out, err, want)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		replace []string
	}{
		{"generate, other grid, same dof count", []string{"generate grid g 2 4 2 4 clamp-left"}},
		{"generate, same grid, other material", []string{"material 100000 0.3 10 100", "generate grid g 4 2 4 2 clamp-left"}},
		{"retrieve", []string{"retrieve g"}},
		{"restore", []string{"restore " + filepath.Join(snapDir, "unsolved.snap")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSession(t)
			mustExec(t, s, "generate grid g 4 2 4 2 clamp-left")
			mustExec(t, s, "store g")
			mustExec(t, s, "snapshot "+filepath.Join(snapDir, "unsolved.snap"))
			solved(t, s)
			for _, line := range tc.replace {
				mustExec(t, s, line)
			}
			unsolved(t, s)
		})
	}
	t.Run("restore of a solved snapshot", func(t *testing.T) {
		s := newSession(t)
		solved(t, s)
		want := mustExec(t, s, "stresses g")
		path := filepath.Join(snapDir, "solved.snap")
		mustExec(t, s, "snapshot "+path)
		mustExec(t, s, "generate grid g 2 4 2 4 clamp-left")
		unsolved(t, s)
		mustExec(t, s, "restore "+path)
		if got := mustExec(t, s, "stresses g"); got != want {
			t.Errorf("stresses after restoring a solved snapshot: %q, want %q", got, want)
		}
	})
}

// TestReplacementDropsGridOptions: endload reads the grid options of the
// model the name holds now.  A truss, a bar, a retrieved model or a
// restored non-grid model that replaces a generated grid has none, so
// endload is refused; the session used to keep the replaced grid's
// options and put its edge loads on arbitrary dofs of the new model.  A
// restored grid brings its own options back.
func TestReplacementDropsGridOptions(t *testing.T) {
	const endload = "load g tip endload 0 -1000"
	snap := filepath.Join(t.TempDir(), "truss.snap")
	for _, tc := range []struct {
		name    string
		replace string
	}{
		{"generate truss", "generate truss g 6 100 80"},
		{"generate bar", "generate bar g 4 100"},
		{"retrieve", "retrieve g"},
		{"restore", "restore " + snap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSession(t)
			mustExec(t, s, "generate truss g 3 100 80")
			mustExec(t, s, "store g")
			mustExec(t, s, "snapshot "+snap)
			mustExec(t, s, "generate grid g 2 2 2 2 clamp-left")
			mustExec(t, s, endload)
			mustExec(t, s, tc.replace)
			if out, err := s.Execute(endload); err == nil || !strings.Contains(err.Error(), "requires a generated grid") {
				t.Errorf("endload after %q: %q, %v; want it refused", tc.replace, out, err)
			}
		})
	}
	t.Run("restore of a grid", func(t *testing.T) {
		s := newSession(t)
		mustExec(t, s, "generate grid g 2 2 2 2 clamp-left")
		want := mustExec(t, s, endload)
		path := filepath.Join(t.TempDir(), "grid.snap")
		mustExec(t, s, "snapshot "+path)
		mustExec(t, s, "generate truss g 6 100 80")
		mustExec(t, s, "restore "+path)
		if got := mustExec(t, s, endload); got != want {
			t.Errorf("endload on the restored grid: %q, want %q", got, want)
		}
	})
}
