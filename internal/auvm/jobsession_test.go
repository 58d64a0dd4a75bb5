package auvm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/job"
	"repro/internal/obs"
)

// jobSession is a session wired to its own single-purpose scheduler,
// the way core.System wires one.
func jobSession(t *testing.T, workers int) *Session {
	t.Helper()
	s := newSession(t)
	s.Jobs = job.NewScheduler(workers)
	t.Cleanup(s.Jobs.Close)
	return s
}

// TestExecuteContextCancellation: the string API has the same
// cancellation story as Do.
func TestExecuteContextCancellation(t *testing.T) {
	s := newSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ExecuteContext(ctx, "list db"); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("cancelled ExecuteContext: %v", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ExecuteContext lost the context error: %v", err)
	}
	// Execute is the context.Background shim: identical output for the
	// same line.
	a, err := s.ExecuteContext(context.Background(), "generate grid g 3 3 3 3 clamp-left")
	if err != nil {
		t.Fatal(err)
	}
	s2 := newSession(t)
	b, err := s2.Execute("generate grid g 3 3 3 3 clamp-left")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("ExecuteContext %q != Execute %q", a, b)
	}
}

// TestJobVerbsNeedScheduler: every job verb (and SubmitAsync) fails
// cleanly on a session with no front end attached.
func TestJobVerbsNeedScheduler(t *testing.T) {
	s := newSession(t)
	ctx := context.Background()
	if _, err := s.SubmitAsync(ctx, command.List{What: command.ListDB}); err == nil {
		t.Error("SubmitAsync without scheduler succeeded")
	}
	for _, line := range []string{
		"submit solve g l", "status job-1", "wait job-1", "cancel job-1", "jobs",
	} {
		if _, err := s.Execute(line); err == nil {
			t.Errorf("%q without scheduler succeeded", line)
		}
	}
}

// TestSubmitWaitByteIdentical is the lifecycle satellite: submit→wait
// yields a result byte-identical to the synchronous Do of the same
// command.
func TestSubmitWaitByteIdentical(t *testing.T) {
	s := jobSession(t, 2)
	ctx := context.Background()
	mustExec(t, s, "generate grid g 6 4 6 4 clamp-left")
	mustExec(t, s, "load g tip endload 0 -100")

	syncRes, err := s.Do(ctx, command.Solve{Model: "g", Set: "tip", Method: command.MethodCG})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.SubmitAsync(ctx, command.Solve{Model: "g", Set: "tip", Method: command.MethodCG})
	if err != nil {
		t.Fatal(err)
	}
	asyncRes, err := s.Jobs.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if asyncRes.String() != syncRes.String() {
		t.Errorf("async %q\n != sync %q", asyncRes.String(), syncRes.String())
	}
	// The same through the command language's submit/wait verbs.
	out := mustExec(t, s, "submit solve g tip method cg")
	if !strings.HasPrefix(out, "submitted job-") {
		t.Fatalf("submit output %q", out)
	}
	waitOut := mustExec(t, s, "wait "+strings.Fields(out)[1])
	if waitOut != syncRes.String() {
		t.Errorf("wait output %q != sync %q", waitOut, syncRes.String())
	}
}

// TestCancelMidSolveLeavesStateUnchanged is the other half of the
// lifecycle satellite: a cancel mid-solve surfaces ErrCancelled and
// leaves both the workspace solution and the shared database exactly as
// they were.
func TestCancelMidSolveLeavesStateUnchanged(t *testing.T) {
	s := jobSession(t, 1)
	ctx := context.Background()
	mustExec(t, s, "generate grid big 40 40 40 40 clamp-left")
	mustExec(t, s, "load big l endload 0 -1000")
	mustExec(t, s, "store big")
	_, dbBefore, err := s.DB.List()
	if err != nil {
		t.Fatal(err)
	}

	// A slow iterative solve, cancelled as soon as it is running.
	id, err := s.SubmitAsync(ctx, command.Solve{Model: "big", Set: "l", Method: command.MethodSOR})
	if err != nil {
		t.Fatal(err)
	}
	for {
		snap, err := s.Jobs.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != job.Queued {
			break
		}
	}
	if _, err := s.Jobs.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Jobs.Wait(ctx, id); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled solve: %v, want ErrCancelled", err)
	}
	if sol := s.WS.Solution("big"); sol != nil {
		t.Error("cancelled solve left a solution in the workspace")
	}
	names, got, err := s.DB.List()
	if err != nil || got != dbBefore {
		t.Errorf("database changed across a cancelled solve: %d -> %d bytes, %v", dbBefore, got, err)
	}
	if len(names) != 1 || names[0] != "big" {
		t.Errorf("database names changed: %v", names)
	}
}

// TestPerJobAttribution: each job carries its own ops/flops accounting,
// and the shared registry still sees the totals.
func TestPerJobAttribution(t *testing.T) {
	s := jobSession(t, 2)
	s.Obs = obs.New()
	ctx := context.Background()
	mustExec(t, s, "generate grid g 4 3 4 3 clamp-left")
	mustExec(t, s, "load g tip endload 0 -100")
	sharedBefore := s.Obs.Counter(obs.AUVMOps).Load()

	id, err := s.SubmitAsync(ctx, command.Solve{Model: "g", Set: "tip"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Jobs.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Jobs.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ops != 1 {
		t.Errorf("job ops = %d, want 1 (its own solve command)", snap.Ops)
	}
	if snap.Flops <= 0 {
		t.Errorf("job flops = %d, want > 0", snap.Flops)
	}
	// The job's op counted in the shared registry too.
	if got := s.Obs.Counter(obs.AUVMOps).Load(); got != sharedBefore+1 {
		t.Errorf("shared ops %d -> %d, want +1", sharedBefore, got)
	}
	// The status verb renders the attribution.
	out := mustExec(t, s, "status job-1")
	if !strings.Contains(out, "flops") {
		t.Errorf("status output lacks attribution: %q", out)
	}
}

// TestConcurrentCheapSubmitsOneSession is the regression test for the
// interpreter-local state race: cheap verbs run inline on submitter
// goroutines, so concurrent SubmitAsync calls on ONE shared session
// interpret commands concurrently — generate (writes the grid memo) and
// material (writes the current material) must not race.  go test -race
// guards it.
func TestConcurrentCheapSubmitsOneSession(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s := jobSession(t, 4)
	ctx := context.Background()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < 20; k++ {
				model := fmt.Sprintf("m-%d-%d", g, k)
				if _, err := s.SubmitAsync(ctx, command.GenerateGrid{
					Name: model, NX: 4, NY: 4, W: 4, H: 4, ClampLeft: true,
				}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.SubmitAsync(ctx, command.SetMaterial{
					E: 200000 + float64(g), Nu: 0.3, T: 10, A: 100,
				}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.SubmitAsync(ctx, command.EndLoad{
					Model: model, Set: "l", FY: -1,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// A worker goroutine re-entering Do concurrently with the session's
	// own command loop is the same shape — drive Do directly too.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < 20; k++ {
				model := fmt.Sprintf("d-%d-%d", g, k)
				if _, err := s.Do(ctx, command.GenerateGrid{
					Name: model, NX: 4, NY: 4, W: 4, H: 4, ClampLeft: true,
				}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Do(ctx, command.EndLoad{Model: model, Set: "l", FY: -1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
