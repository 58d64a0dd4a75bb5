// Acceptance tests for the asynchronous job service: the facade-level
// guarantees ISSUE 4 asks of the concurrent multi-tenant front end.
package fem2_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	fem2 "repro"
	"repro/internal/obs"
)

// buildPlate builds one model + tip load set in a session, via the
// synchronous cheap verbs.
func buildPlate(t testing.TB, s *fem2.Session, model string, nx, ny int) {
	t.Helper()
	ctx := context.Background()
	cmds := []fem2.Command{
		fem2.GenerateGrid{Name: model, NX: nx, NY: ny, W: float64(nx), H: float64(ny), ClampLeft: true},
		fem2.EndLoad{Model: model, Set: "tip", FY: -100},
	}
	for _, c := range cmds {
		if _, err := s.Do(ctx, c); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
}

// TestConcurrentSessionsThroughScheduler is the acceptance criterion:
// at least 16 concurrent sessions submitting solves on shared and
// distinct models through the scheduler, every result identical to the
// synchronous path.  go test -race runs this under the race detector.
func TestConcurrentSessionsThroughScheduler(t *testing.T) {
	const sessions = 20 // half on one shared model name, half distinct
	sys, err := fem2.New(fem2.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	// Reference results from the synchronous path on an isolated system
	// — one reference session suffices since models are deterministic
	// functions of their generate parameters.
	refSys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	defer refSys.Close()
	ref := refSys.Session("ref")
	want := make([]string, sessions)
	models := make([]string, sessions)
	for i := range models {
		if i%2 == 0 {
			models[i] = "shared" // same model name in every even session
		} else {
			models[i] = fmt.Sprintf("plate-%d", i)
		}
	}
	seen := map[string]bool{}
	for i, m := range models {
		if !seen[m] {
			buildPlate(t, ref, m, 6, 4)
			seen[m] = true
		}
		res, err := ref.Do(ctx, fem2.SolveCommand{Model: m, Set: "tip"})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.String()
	}

	// The concurrent run: one goroutine per session, each building its
	// own workspace copy of its model and submitting the solve through
	// the shared scheduler.  Solves on "shared" serialize on the model
	// lock; distinct plates run in parallel across the pool.
	got := make([]string, sessions)
	errc := make(chan error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sys.Session(fmt.Sprintf("user-%d", i))
			buildPlate(t, s, models[i], 6, 4)
			id, err := s.SubmitAsync(ctx, fem2.SolveCommand{Model: models[i], Set: "tip"})
			if err != nil {
				errc <- fmt.Errorf("user-%d submit: %w", i, err)
				return
			}
			res, err := sys.Jobs.Wait(ctx, id)
			if err != nil {
				errc <- fmt.Errorf("user-%d wait: %w", i, err)
				return
			}
			got[i] = res.String()
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("session %d (%s): async %q != sync %q", i, models[i], got[i], want[i])
		}
	}

	// The scheduler saw every job and all of them finished.
	done, err := sys.Jobs.List(fem2.JobFilter{States: []fem2.JobState{fem2.JobDone}})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != sessions {
		t.Errorf("done jobs = %d, want %d", len(done), sessions)
	}
	if n := len(sys.Users()); n != sessions {
		t.Errorf("Users = %d, want %d", n, sessions)
	}
}

// TestCancelMidSolveThroughFacade: a job cancelled mid-solve surfaces
// ErrCancelled through the facade and the shared database is untouched.
func TestCancelMidSolveThroughFacade(t *testing.T) {
	sys, err := fem2.New(fem2.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	s := sys.Session("eng")
	buildPlate(t, s, "big", 40, 40)
	if _, err := s.Do(ctx, fem2.StoreCommand{Model: "big"}); err != nil {
		t.Fatal(err)
	}
	namesBefore := fmt.Sprint(sys.Database.List())

	id, err := s.SubmitAsync(ctx, fem2.SolveCommand{Model: "big", Set: "tip", Method: fem2.SolveSOR})
	if err != nil {
		t.Fatal(err)
	}
	// Let it leave the queue, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := sys.Jobs.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != fem2.JobQueued || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := sys.Jobs.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Jobs.Wait(ctx, id); !errors.Is(err, fem2.ErrCancelled) {
		t.Fatalf("cancelled job error = %v, want ErrCancelled", err)
	}
	snap, err := sys.Jobs.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != fem2.JobCancelled {
		t.Errorf("state = %v, want cancelled", snap.State)
	}
	if got := fmt.Sprint(sys.Database.List()); got != namesBefore {
		t.Errorf("database changed across cancel: %s -> %s", namesBefore, got)
	}
	if s.WS.Solution("big") != nil {
		t.Error("cancelled solve left a workspace solution")
	}
}

// TestJobSurfaceThroughREPL drives the whole job API through the
// command language alone, the way a workstation user would.
func TestJobSurfaceThroughREPL(t *testing.T) {
	sys, err := fem2.New(fem2.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session("eng")
	for _, line := range []string{
		"generate grid wing 8 4 8 4 clamp-left",
		"load wing cruise endload 0 -500",
	} {
		if _, err := s.Execute(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	syncOut, err := s.Execute("solve wing cruise")
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Execute("submit solve wing cruise")
	if err != nil {
		t.Fatal(err)
	}
	if want := "submitted job-1 (queued): solve wing cruise"; out != want {
		t.Errorf("submit = %q, want %q", out, want)
	}
	waitOut, err := s.Execute("wait job-1")
	if err != nil {
		t.Fatal(err)
	}
	if waitOut != syncOut {
		t.Errorf("wait %q != sync solve %q", waitOut, syncOut)
	}
	statusOut, err := s.Execute("status job-1")
	if err != nil {
		t.Fatal(err)
	}
	if want := `job-1 done (owner "eng"): solve wing cruise`; len(statusOut) < len(want) || statusOut[:len(want)] != want {
		t.Errorf("status = %q", statusOut)
	}
	// The typed state-name constants drive the jobs filter.
	res, err := s.Do(context.Background(), fem2.JobsCommand{State: fem2.JobDoneName})
	if err != nil {
		t.Fatal(err)
	}
	if jr := res.(*fem2.JobsResult); len(jr.Rows) != 1 || jr.Rows[0].State != fem2.JobDoneName {
		t.Errorf("typed jobs filter = %+v", res)
	}
	// An unknown job is a NotFound, not a crash.
	if _, err := s.Execute("status job-99"); !errors.Is(err, fem2.ErrNotFound) {
		t.Errorf("status of unknown job: %v", err)
	}
}

// TestConcurrentJobsShareFactorization is the factor-once guarantee of
// ISSUE 5: N jobs submitted concurrently against one model serialize on
// the per-model lock and share the factor cache the session's model
// owns, so exactly one of them factors and the rest ride the warm factor
// with identical displays.  go test -race runs this under the race detector.
func TestConcurrentJobsShareFactorization(t *testing.T) {
	const jobs = 8
	sys, err := fem2.New(fem2.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session("eng")
	buildPlate(t, s, "wing", 8, 6)
	ctx := context.Background()

	ids := make([]fem2.JobID, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = s.SubmitAsync(ctx, fem2.SolveCommand{
				Model: "wing", Set: "tip", Method: fem2.SolveCholeskyRCM,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	refactored := 0
	var display string
	for i, id := range ids {
		res, err := sys.Jobs.Wait(ctx, id)
		if err != nil {
			t.Fatalf("job %v: %v", id, err)
		}
		sr, ok := res.(*fem2.SolveResult)
		if !ok {
			t.Fatalf("job %v result %T", id, res)
		}
		if sr.Refactored {
			refactored++
		}
		if i == 0 {
			display = sr.String()
		} else if got := sr.String(); got != display {
			t.Errorf("job %v display %q differs from %q", id, got, display)
		}
	}
	if refactored != 1 {
		t.Errorf("%d of %d jobs refactored, want exactly 1", refactored, jobs)
	}
	// The synchronous solve verb solves the same model object: it rides
	// the factor the jobs computed.
	res, err := s.Do(ctx, fem2.SolveCommand{Model: "wing", Set: "tip", Method: fem2.SolveCholeskyRCM})
	if err != nil {
		t.Fatal(err)
	}
	if sr := res.(*fem2.SolveResult); sr.Refactored {
		t.Error("synchronous solve after warm jobs refactored")
	}
	if got := res.String(); got != display {
		t.Errorf("synchronous display %q differs from job display %q", got, display)
	}
	if g := s.WS.Model("wing").Factors().Generation(); g != 1 {
		t.Errorf("model factor cache generation = %d after %d jobs and a synchronous solve, want 1", g, jobs)
	}
}

// TestSameNameSessionsKeepTheirOwnFactor: a model's factor belongs to
// the model object, not to its name.  Two sessions that each call their
// model "g" — different sizes, or one size with different moduli — and
// solve in alternation, synchronously and through the scheduler, factor
// once each and never again: neither evicts the other's plan, and every
// reply equals, bit for bit, the one the session gets solving alone.
func TestSameNameSessionsKeepTheirOwnFactor(t *testing.T) {
	type plate struct {
		nx, ny int
		e      float64
	}
	const rounds = 4
	ctx := context.Background()
	solve := fem2.SolveCommand{Model: "g", Set: "tip", Method: fem2.SolveCholeskyRCM}
	build := func(s *fem2.Session, p plate) {
		t.Helper()
		if _, err := s.Do(ctx, fem2.SetMaterial{E: p.e, Nu: 0.3, T: 10, A: 100}); err != nil {
			t.Fatal(err)
		}
		buildPlate(t, s, "g", p.nx, p.ny)
	}
	// run has each session solve its "g" once per round, the sessions
	// taking turns, even rounds synchronously and odd ones as a job.
	run := func(sys *fem2.System, sessions []*fem2.Session) (replies [][]fem2.SolveResult, us [][]float64) {
		t.Helper()
		replies, us = make([][]fem2.SolveResult, len(sessions)), make([][]float64, len(sessions))
		for round := 0; round < rounds; round++ {
			for i, s := range sessions {
				var res fem2.Result
				var err error
				if round%2 == 0 {
					res, err = s.Do(ctx, solve)
				} else if id, serr := s.SubmitAsync(ctx, solve); serr != nil {
					err = serr
				} else {
					res, err = sys.Jobs.Wait(ctx, id)
				}
				if err != nil {
					t.Fatalf("session %d round %d: %v", i, round, err)
				}
				replies[i] = append(replies[i], *res.(*fem2.SolveResult))
				us[i] = append([]float64(nil), s.WS.Solution("g").U...)
			}
		}
		return replies, us
	}
	for _, tc := range []struct {
		name   string
		plates []plate
	}{
		{"two sizes", []plate{{8, 6, 200000}, {12, 8, 200000}}},
		{"one size, two moduli", []plate{{8, 6, 200000}, {8, 6, 70000}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := fem2.New(fem2.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			var sessions []*fem2.Session
			for i, p := range tc.plates {
				s := sys.Session(fmt.Sprintf("eng%d", i))
				build(s, p)
				sessions = append(sessions, s)
			}
			replies, us := run(sys, sessions)
			for i, p := range tc.plates {
				for round, r := range replies[i] {
					if r.Refactored != (round == 0) {
						t.Errorf("session %d round %d: Refactored = %v", i, round, r.Refactored)
					}
				}
				alone, err := fem2.New(fem2.WithWorkers(2))
				if err != nil {
					t.Fatal(err)
				}
				s := alone.Session("alone")
				build(s, p)
				wantReplies, wantU := run(alone, []*fem2.Session{s})
				alone.Close()
				if !reflect.DeepEqual(replies[i], wantReplies[0]) {
					t.Errorf("session %d replies\n got %+v\nalone %+v", i, replies[i], wantReplies[0])
				}
				if len(us[i]) != len(wantU[0]) {
					t.Fatalf("session %d: %d dofs, alone %d", i, len(us[i]), len(wantU[0]))
				}
				for d := range wantU[0] {
					if math.Float64bits(us[i][d]) != math.Float64bits(wantU[0][d]) {
						t.Fatalf("session %d: U[%d] = %.17g, alone %.17g", i, d, us[i][d], wantU[0][d])
					}
				}
			}
			if got := sys.Obs.Counter(obs.FactorRefactors).Load(); got != int64(len(tc.plates)) {
				t.Errorf("factor.refactors = %d, want %d: one per distinct model", got, len(tc.plates))
			}
		})
	}
}
