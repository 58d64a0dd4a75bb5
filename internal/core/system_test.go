package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/job"
	"repro/internal/obs"
)

// TestSessionRegistryRace is the -race stress test for the session
// registry: N goroutines churning M sessions on one shared database —
// create, enumerate, execute, and close concurrently.  Before the
// registry grew its mutex, concurrent Session() calls raced on the map.
func TestSessionRegistryRace(t *testing.T) {
	sys, err := Open(Options{Arch: arch.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const goroutines, users, rounds = 16, 4, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				u := fmt.Sprintf("user%d", (g+k)%users)
				s := sys.Session(u)
				if s.User != u {
					t.Errorf("Session(%q).User = %q", u, s.User)
					return
				}
				sys.Users()
				sys.Sessions()
				if k%10 == 9 {
					sys.CloseSession(u)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionIdentityUnderConcurrency: simultaneous Session calls for
// one user all get the same session.
// TestAUVMOpsExactUnderConcurrentSessions: many sessions issue commands
// at once down every path that counts an AUVM operation — served,
// malformed, refused at Hold, and dispatched by the scheduler — and
// auvm.ops ends up at exactly one per command.
func TestAUVMOpsExactUnderConcurrentSessions(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Clusters, cfg.PEsPerCluster = 2, 4
	sys, err := Open(Options{Arch: cfg, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const sessions, rounds, perRound = 8, 5, 5
	ctx := context.Background()
	errc := make(chan error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(user string) {
			defer wg.Done()
			errc <- func() error {
				s := sys.Session(user)
				for r := 0; r < rounds; r++ {
					// Served: two ops.
					for _, line := range []string{"generate grid g 3 2 3 2 clamp-left", "load g l endload 0 -100"} {
						if _, err := s.Execute(line); err != nil {
							return err
						}
					}
					// Malformed: one op.
					if _, err := s.Execute("frobnicate g"); !errors.Is(err, errs.ErrUsage) {
						return fmt.Errorf("malformed line answered %v", err)
					}
					// Refused at Hold: one op.
					if err := sys.Jobs.Hold(ctx, user, "g", command.Solve{Model: "g", Set: "l"}); err != nil {
						return err
					}
					_, err := s.Do(ctx, command.EndLoad{Model: "g", Set: "l", FY: -1})
					sys.Jobs.Release(user, "g")
					if err == nil || !strings.Contains(err.Error(), "is busy") {
						return fmt.Errorf("edit of a held model answered %v", err)
					}
					// Dispatched by the scheduler: one op.
					id, err := s.SubmitAsync(ctx, command.Solve{Model: "g", Set: "l"})
					if err != nil {
						return err
					}
					if _, err := sys.Jobs.Wait(ctx, id); err != nil {
						return err
					}
				}
				return nil
			}()
		}(fmt.Sprintf("user%d", i))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sys.Obs.Counter(obs.AUVMOps).Load(), int64(sessions*rounds*perRound); got != want {
		t.Errorf("auvm.ops = %d, want %d", got, want)
	}
}

func TestSessionIdentityUnderConcurrency(t *testing.T) {
	sys, err := Open(Options{Arch: arch.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const goroutines = 32
	var wg sync.WaitGroup
	sessions := make([]interface{}, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sessions[g] = sys.Session("shared")
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if sessions[g] != sessions[0] {
			t.Fatalf("goroutine %d got a different session", g)
		}
	}
}

func TestSessionsAndCloseSession(t *testing.T) {
	sys, err := Open(Options{Arch: arch.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	b := sys.Session("bob")
	sys.Session("alice")
	ss := sys.Sessions()
	if len(ss) != 2 || ss[0].User != "alice" || ss[1].User != "bob" {
		t.Fatalf("Sessions = %v", ss)
	}
	if !sys.CloseSession("alice") {
		t.Error("CloseSession(alice) = false")
	}
	if sys.CloseSession("alice") {
		t.Error("CloseSession twice = true")
	}
	if got := sys.Users(); len(got) != 1 || got[0] != "bob" {
		t.Errorf("Users after close = %v", got)
	}
	// A reopened session is fresh, not the old one.
	if sys.Session("alice") == nil || len(sys.Users()) != 2 {
		t.Error("reopen failed")
	}
	_ = b
}

// TestCloseSessionCancelsJobs: closing a session cancels the user's
// live jobs but leaves other users' jobs alone.
func TestCloseSessionCancelsJobs(t *testing.T) {
	sys, err := Open(Options{Arch: arch.DefaultConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	alice := sys.Session("alice")
	for _, line := range []string{
		"generate grid big 40 40 40 40 clamp-left",
		"load big l endload 0 -1000",
	} {
		if _, err := alice.Execute(line); err != nil {
			t.Fatal(err)
		}
	}
	// A slow iterative solve alice will never see finish.
	id, err := alice.SubmitAsync(ctx, command.Solve{Model: "big", Set: "l", Method: command.MethodSOR})
	if err != nil {
		t.Fatal(err)
	}
	sys.CloseSession("alice")
	if _, err := sys.Jobs.Wait(ctx, id); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("alice's job after CloseSession: %v, want ErrCancelled", err)
	}
	snap, err := sys.Jobs.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != job.Cancelled {
		t.Errorf("state = %v, want cancelled", snap.State)
	}
}

// TestSystemJobsWiring: every session shares the system scheduler, and
// the command language drives it end to end.
func TestSystemJobsWiring(t *testing.T) {
	sys, err := Open(Options{Arch: arch.DefaultConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session("eng")
	if s.Jobs != sys.Jobs {
		t.Fatal("session not wired to the system scheduler")
	}
	for _, line := range []string{
		"generate grid g 6 4 6 4 clamp-left",
		"load g l endload 0 -100",
	} {
		if _, err := s.Execute(line); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Execute("submit solve g l")
	if err != nil {
		t.Fatal(err)
	}
	if want := "submitted job-1 (queued): solve g l"; out != want {
		t.Errorf("submit output %q, want %q", out, want)
	}
	waitOut, err := s.Execute("wait job-1")
	if err != nil {
		t.Fatal(err)
	}
	// wait renders the underlying solve result line.
	if want := `solved "g"/"l"`; !strings.HasPrefix(waitOut, want) {
		t.Errorf("wait output %q", waitOut)
	}
	jobsOut, err := s.Execute("jobs user eng state done")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(jobsOut, "jobs (1):") {
		t.Errorf("jobs output %q", jobsOut)
	}
}
