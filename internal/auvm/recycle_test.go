package auvm

import (
	"context"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/command"
)

// TestWorkspaceRecyclesReplacedResults pins the entry's two buffers: a
// solve leaves the solution it replaced untouched, the solve after it
// writes over that one in place, stress recovery alternates the same way,
// and a replacement by generate drops the results into the spares that
// the new model's first solve and recovery write over.  Every rendering
// equals a fresh session's.
func TestWorkspaceRecyclesReplacedResults(t *testing.T) {
	const generate = "generate grid g 6 4 6 4 clamp-left"
	s := newSession(t)
	mustExec(t, s, generate)
	// step loads g with fy, solves it and recovers its stresses, and
	// checks every rendering against a fresh session that did only that.
	step := func(fy string) {
		t.Helper()
		fresh := newSession(t)
		mustExec(t, fresh, generate)
		for _, line := range []string{"load g tip endload 0 " + fy, "solve g tip", "stresses g", "display displacements g", "display stresses g"} {
			if got, want := mustExec(t, s, line), mustExec(t, fresh, line); got != want {
				t.Fatalf("load %s, %q: %q, fresh session %q", fy, line, got, want)
			}
		}
	}
	step("-100")
	sol1, st1 := s.WS.solution("g"), s.WS.stresses("g")
	u1 := append([]float64(nil), sol1.U...)
	step("-200")
	sol2, st2 := s.WS.solution("g"), s.WS.stresses("g")
	if sol2 == sol1 || &sol2.U[0] == &sol1.U[0] || &st2[0][0] == &st1[0][0] {
		t.Fatal("the second solve or recovery wrote over the results it replaced")
	}
	for i := range u1 {
		if sol1.U[i] != u1[i] {
			t.Fatalf("the replaced solution changed at dof %d before the solve after it", i)
		}
	}
	step("-300")
	sol3, st3 := s.WS.solution("g"), s.WS.stresses("g")
	if sol3 != sol1 || &sol3.U[0] != &sol1.U[0] || &st3[0][0] != &st1[0][0] {
		t.Fatal("the third solve or recovery did not write over the first one's results")
	}

	mustExec(t, s, generate)
	if s.WS.solution("g") != nil || s.WS.stresses("g") != nil {
		t.Fatal("generate kept the replaced model's results")
	}
	step("-400")
	if sol, st := s.WS.solution("g"), s.WS.stresses("g"); sol != sol3 || &st[0][0] != &st3[0][0] {
		t.Fatal("the replacement's first solve or recovery did not write over the dropped results")
	}
}

// TestAccessorsHandOutCopies: what Workspace.Solution and
// Workspace.Stresses return is the caller's.  It is not the buffer the
// workspace recycles, so it reads the same after any number of solves and
// recoveries, and changing it changes nothing the session reads.
func TestAccessorsHandOutCopies(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "generate grid g 6 4 6 4 clamp-left")
	mustExec(t, s, "load g tip endload 0 -100")
	mustExec(t, s, "solve g tip")
	mustExec(t, s, "stresses g")
	want := mustExec(t, s, "display displacements g") + mustExec(t, s, "display stresses g")
	sol, st := s.WS.Solution("g"), s.WS.Stresses("g")
	if sol == s.WS.solution("g") || &sol.U[0] == &s.WS.solution("g").U[0] || &st[0][0] == &s.WS.stresses("g")[0][0] {
		t.Fatal("an accessor handed out the workspace's own result")
	}
	u, row := slices.Clone(sol.U), slices.Clone(st[0])
	mustExec(t, s, "load g tip endload 0 -200")
	for i := 0; i < 3; i++ {
		mustExec(t, s, "solve g tip")
		mustExec(t, s, "stresses g")
	}
	if !slices.Equal(sol.U, u) || !slices.Equal(st[0], row) {
		t.Fatal("a solve or recovery wrote over a result an accessor handed out")
	}
	mustExec(t, s, "load g tip endload 0 -100")
	mustExec(t, s, "solve g tip")
	mustExec(t, s, "stresses g")
	sol, st = s.WS.Solution("g"), s.WS.Stresses("g")
	sol.U[0], st[0][0] = 1e300, 1e300
	if got := mustExec(t, s, "display displacements g") + mustExec(t, s, "display stresses g"); got != want {
		t.Errorf("after changing the copies the session displays %q, want %q", got, want)
	}
}

// TestSnapshotBesideRecyclingSolves runs snapshots while jobs solve one
// model and recover its stresses over and over, each writing over the
// results two solves back.  snapshot holds no model, so it must copy the
// results while the workspace keeps them from being recycled; run it
// under -race.
func TestSnapshotBesideRecyclingSolves(t *testing.T) {
	s := jobSession(t, 2)
	ctx := context.Background()
	mustExec(t, s, "generate grid g 8 4 8 4 clamp-left")
	mustExec(t, s, "load g tip endload 0 -100")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			for _, cmd := range []command.Command{command.Solve{Model: "g", Set: "tip"}, command.Stresses{Model: "g"}} {
				id, err := s.SubmitAsync(ctx, cmd)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Jobs.Wait(ctx, id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	path := filepath.Join(t.TempDir(), "g.snap")
	for i := 0; i < 40; i++ {
		if _, err := s.Do(ctx, command.Snapshot{Path: path}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	fresh := newSession(t)
	mustExec(t, fresh, "restore "+path)
	if got, want := mustExec(t, fresh, "display displacements g"), mustExec(t, s, "display displacements g"); got != want {
		t.Errorf("restored %q, session %q", got, want)
	}
}
