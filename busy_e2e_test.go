// Acceptance tests for the per-model hold: a model is only ever touched
// by whoever holds it in the scheduler, whether the command came through
// submit or not.  The first two tests are the reproductions of the data
// race any client could trigger before — fem.(*Model).AddNode on the
// connection's reader against fem.Solve on a worker — and mean something
// only under go test -race, which CI runs.
package fem2_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	fem2 "repro"
)

// doer is what a local session and a network client have in common.
type doer interface {
	Do(ctx context.Context, cmd fem2.Command) (fem2.Result, error)
}

// localAndWire runs test against a session of an in-process system and
// against a network client of a served one.
func localAndWire(t *testing.T, test func(t *testing.T, d doer)) {
	t.Run("local", func(t *testing.T) {
		sys, err := fem2.New(fem2.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		test(t, sys.Session("eng"))
	})
	t.Run("wire", func(t *testing.T) {
		_, srv, addr, _ := startServer(t, fem2.ServerConfig{}, fem2.WithWorkers(2))
		defer srv.Shutdown(context.Background())
		cl, err := fem2.Dial(addr, "eng")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		test(t, cl)
	})
}

// busyPlate (re)builds the 40×24 plate the reproductions race on.
func busyPlate(t *testing.T, d doer) {
	t.Helper()
	for _, c := range []fem2.Command{
		fem2.GenerateGrid{Name: "g", NX: 40, NY: 24, W: 40, H: 24, ClampLeft: true},
		fem2.EndLoad{Model: "g", Set: "tip", FY: -100},
	} {
		if _, err := d.Do(context.Background(), c); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
}

// jobState asks for one job's state.
func jobState(t *testing.T, d doer, id int64) string {
	t.Helper()
	res, err := d.Do(context.Background(), fem2.StatusCommand{ID: id})
	if err != nil {
		t.Fatal(err)
	}
	return string(res.(*fem2.JobStatusResult).State)
}

// isBusy reports whether err is the refusal of a command whose model is
// held: an ordinary error, outside the taxonomy.
func isBusy(err error) bool {
	return err != nil && strings.Contains(err.Error(), `model "g" is busy (`) &&
		!errors.Is(err, fem2.ErrUsage) && !errors.Is(err, fem2.ErrNotFound) && !errors.Is(err, fem2.ErrCancelled)
}

// TestEditDuringSubmittedSolve: submit solve, then node on the same
// model before wait — one goroutine, one connection.  The edit lands
// before the job starts, or after it finished, or is refused; it never
// runs beside the solve.  A refused edit leaves the solve its answer.
func TestEditDuringSubmittedSolve(t *testing.T) {
	localAndWire(t, func(t *testing.T, d doer) {
		ctx := context.Background()
		busyPlate(t, d)
		want, err := d.Do(ctx, fem2.SolveCommand{Model: "g", Set: "tip"})
		if err != nil {
			t.Fatal(err)
		}
		refused := 0
		for rep := 0; rep < 10; rep++ {
			busyPlate(t, d)
			sub, err := d.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "g", Set: "tip"}})
			if err != nil {
				t.Fatal(err)
			}
			id := sub.(*fem2.SubmitResult).ID
			// A local submit returns before a worker has the job; over the
			// wire the round trip alone lets it start.
			for jobState(t, d, id) == "queued" {
			}
			_, editErr := d.Do(ctx, fem2.AddNode{Model: "g", X: 1, Y: 1})
			if editErr != nil && !isBusy(editErr) {
				t.Fatalf("node beside a submitted solve: %v", editErr)
			}
			got, err := d.Do(ctx, fem2.WaitCommand{ID: id})
			if editErr == nil {
				continue // the edit may have landed first: the job solved a plate with a loose node
			}
			refused++
			if err != nil || got.String() != want.String() {
				t.Fatalf("solve beside a refused edit = %v, %v; want %v", got, err, want)
			}
		}
		t.Logf("%d of 10 edits refused", refused)
	})
}

// TestEditBesideSynchronousSolve: a synchronous solve and a node on the
// same model from two goroutines of one session (one Client).  Whichever
// takes the model first runs alone: the node is refused while the solve
// runs, the solve waits while the node runs.
func TestEditBesideSynchronousSolve(t *testing.T) {
	localAndWire(t, func(t *testing.T, d doer) {
		ctx := context.Background()
		for rep := 0; rep < 10; rep++ {
			busyPlate(t, d)
			var wg sync.WaitGroup
			var solveErr, editErr error
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, solveErr = d.Do(ctx, fem2.SolveCommand{Model: "g", Set: "tip"})
			}()
			go func() {
				defer wg.Done()
				_, editErr = d.Do(ctx, fem2.AddNode{Model: "g", X: 1, Y: 1})
			}()
			wg.Wait()
			if editErr != nil && !isBusy(editErr) {
				t.Fatalf("node beside a synchronous solve: %v", editErr)
			}
			if editErr != nil && solveErr != nil {
				t.Fatalf("the edit was refused (%v) and the solve failed all the same: %v", editErr, solveErr)
			}
		}
	})
}

// TestBusyModelRefusesAndQueues holds a model with a solve that runs
// until cancelled, and checks each way in: a synchronous edit is refused
// by name of the holder, a ping behind it answers, a submitted edit waits
// its turn and lands after the solve, a synchronous solve waits too.
func TestBusyModelRefusesAndQueues(t *testing.T) {
	localAndWire(t, func(t *testing.T, d doer) {
		ctx := context.Background()
		busyPlate(t, d)
		sub, err := d.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "g", Set: "tip", Method: fem2.SolveSOR}})
		if err != nil {
			t.Fatal(err)
		}
		id := sub.(*fem2.SubmitResult).ID
		for deadline := time.Now().Add(10 * time.Second); jobState(t, d, id) != "running"; {
			if time.Now().After(deadline) {
				t.Fatalf("job-%d is %s, never running", id, jobState(t, d, id))
			}
			time.Sleep(time.Millisecond)
		}

		_, err = d.Do(ctx, fem2.AddNode{Model: "g", X: 1, Y: 1})
		want := fmt.Sprintf(`job: model "g" is busy (job-%d running): wait for it, or submit the edit`, id)
		if !isBusy(err) || err.Error() != want {
			t.Fatalf("node on a held model = %v, want %q outside the taxonomy", err, want)
		}
		if _, err := d.Do(ctx, fem2.PingCommand{}); err != nil {
			t.Fatalf("ping behind the refused edit: %v", err)
		}
		// Another model of the same session is nobody's business.
		if _, err := d.Do(ctx, fem2.GenerateBar{Name: "rod", Segments: 4, Length: 10}); err != nil {
			t.Fatalf("generate on a free model: %v", err)
		}

		// The submitted edit and the synchronous solve both wait.
		type reply struct {
			res fem2.Result
			err error
		}
		edit, solve := make(chan reply, 1), make(chan reply, 1)
		go func() {
			res, err := d.Do(ctx, fem2.SubmitCommand{Cmd: fem2.AddNode{Model: "g", X: 2, Y: 2}})
			edit <- reply{res, err}
		}()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			res, err := d.Do(ctx, fem2.JobsCommand{State: "queued"})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.(*fem2.JobsResult).Rows) == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the submitted edit never showed as queued")
			}
		}
		go func() {
			res, err := d.Do(ctx, fem2.SolveCommand{Model: "g", Set: "tip"})
			solve <- reply{res, err}
		}()
		select {
		case r := <-edit:
			t.Fatalf("submit node answered beside the running solve: %v, %v", r.res, r.err)
		case r := <-solve:
			t.Fatalf("solve answered beside the running solve: %v, %v", r.res, r.err)
		case <-time.After(50 * time.Millisecond):
		}
		if st := jobState(t, d, id); st != "running" {
			t.Fatalf("job-%d is %s, want it still running", id, st)
		}

		if _, err := d.Do(ctx, fem2.CancelCommand{ID: id}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Do(ctx, fem2.WaitCommand{ID: id}); !errors.Is(err, fem2.ErrCancelled) {
			t.Fatalf("wait on the cancelled solve: %v", err)
		}
		r := <-edit
		if r.err != nil {
			t.Fatalf("submit node after the solve ended: %v", r.err)
		}
		editID := r.res.(*fem2.SubmitResult).ID
		node, err := d.Do(ctx, fem2.WaitCommand{ID: editID})
		if err != nil || node.(*fem2.NodeResult).ID != 1025 {
			t.Fatalf("the submitted edit = %v, %v; want node 1025, the first past the plate's own", node, err)
		}
		// The waiting solve ran alone too — before the edit (and solved) or
		// after it (a loose node: it fails, but it ran).
		if r := <-solve; r.err != nil && isBusy(r.err) {
			t.Fatalf("a synchronous solve was refused instead of waiting: %v", r.err)
		}
	})
}

// TestRestoreBesideRunningSolve: snapshot a plate, regenerate it with
// another width (the same dof count), submit a solve of the new one and
// restore the snapshot while the job runs.  restore names no model of its
// own, so it used to replace the model under the job, whose answer then
// landed on the restored model: the displacements on display were the
// job's, not the model's.  Now restore holds every model the file
// carries first and is refused by the job's name — leaving the workspace
// and the job's answer as they were — unless the job finished first, in
// which case model and solution are both the snapshot's.
func TestRestoreBesideRunningSolve(t *testing.T) {
	localAndWire(t, func(t *testing.T, d doer) {
		ctx := context.Background()
		do := func(c fem2.Command) fem2.Result {
			t.Helper()
			res, err := d.Do(ctx, c)
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			return res
		}
		solve := fem2.SolveCommand{Model: "g", Set: "tip", Method: fem2.SolveCholesky}
		plate := func(w float64) {
			do(fem2.GenerateGrid{Name: "g", NX: 80, NY: 48, W: w, H: 48, ClampLeft: true})
			do(fem2.EndLoad{Model: "g", Set: "tip", FY: -100})
		}
		displacements := func() string {
			return do(fem2.Display{What: fem2.DisplayDisplacements, Model: "g"}).String()
		}
		plate(80)
		do(solve)
		narrow := displacements()
		plate(160)
		do(solve)
		wide := displacements()
		snap := filepath.Join(t.TempDir(), "wide.snap")
		do(fem2.SnapshotCommand{Path: snap})
		if narrow == wide {
			t.Fatalf("both plates display %q; the test needs them apart", narrow)
		}

		plate(80)
		id := do(fem2.SubmitCommand{Cmd: solve}).(*fem2.SubmitResult).ID
		for jobState(t, d, id) == "queued" {
		}
		_, restoreErr := d.Do(ctx, fem2.RestoreCommand{Path: snap})
		if _, err := d.Do(ctx, fem2.WaitCommand{ID: id}); err != nil {
			t.Fatalf("wait job-%d: %v", id, err)
		}
		got := displacements()
		if restoreErr == nil {
			t.Log("restore accepted")
			if got != wide {
				t.Fatalf("after an accepted restore displacements read %q, want the snapshot's %q", got, wide)
			}
			return
		}
		want := fmt.Sprintf(`job: model "g" is busy (job-%d running): wait for it, or submit the edit`, id)
		if !isBusy(restoreErr) || restoreErr.Error() != want {
			t.Fatalf("restore beside a running solve = %v, want %q outside the taxonomy", restoreErr, want)
		}
		if got != narrow {
			t.Fatalf("after a refused restore displacements read %q, want the solved plate's %q", got, narrow)
		}
	})
}
