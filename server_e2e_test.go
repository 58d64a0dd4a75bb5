// Acceptance tests for the network layer: ISSUE 6's guarantees that a
// fem2d daemon serves the full typed command surface to concurrent
// clients with renderings byte-identical to local execution, enforces
// per-tenant quotas, pushes job-state notifications, survives mid-solve
// disconnects, and drains gracefully without losing terminal job
// records.  go test -race runs all of it under the race detector.
package fem2_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	fem2 "repro"
)

// startServer boots a system and serves it on a loopback listener,
// returning the dial address and Serve's eventual error.
func startServer(t *testing.T, cfg fem2.ServerConfig, opts ...fem2.Option) (*fem2.System, *fem2.Server, string, chan error) {
	t.Helper()
	sys, err := fem2.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := fem2.NewServer(sys, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	servErr := make(chan error, 1)
	go func() { servErr <- srv.Serve(ln) }()
	return sys, srv, ln.Addr().String(), servErr
}

// remotePlate builds one model + tip load set through a network client.
func remotePlate(t testing.TB, cl *fem2.Client, model string, nx, ny int) {
	t.Helper()
	ctx := context.Background()
	cmds := []fem2.Command{
		fem2.GenerateGrid{Name: model, NX: nx, NY: ny, W: float64(nx), H: float64(ny), ClampLeft: true},
		fem2.EndLoad{Model: model, Set: "tip", FY: -100},
	}
	for _, c := range cmds {
		if _, err := cl.Do(ctx, c); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
}

// submitAndWait submits a solve through the wire and waits for its
// result, returning the job id and the result rendering.
func submitAndWait(cl *fem2.Client, model string) (int64, string, error) {
	ctx := context.Background()
	res, err := cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: model, Set: "tip"}})
	if err != nil {
		return 0, "", fmt.Errorf("submit: %w", err)
	}
	id := res.(*fem2.SubmitResult).ID
	out, err := cl.Do(ctx, fem2.WaitCommand{ID: id})
	if err != nil {
		return id, "", fmt.Errorf("wait job-%d: %w", id, err)
	}
	return id, out.String(), nil
}

// TestServerREPLByteIdentical drives one scripted session through a
// local Session.Run and through a network client against a daemon, and
// requires the two outputs to match byte for byte — results, error
// lines, and all.
func TestServerREPLByteIdentical(t *testing.T) {
	script := strings.Join([]string{
		"ping",
		"version",
		"generate grid wing 8 4 8 4 clamp-left",
		"load wing cruise endload 0 -500",
		"solve wing cruise",
		"solve wing cruise method cg precond jacobi",
		"stresses wing",
		"display model wing",
		"display displacements wing",
		"display stresses wing",
		"list workspace",
		"solve nosuch cruise",       // not-found error line
		"generate grid bad 1 1 0 0", // usage error line
		"frobnicate the plate",      // unknown verb error line
		"quit",
	}, "\n") + "\n"

	localSys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	defer localSys.Close()
	var localOut strings.Builder
	if err := localSys.Session("eng").Run(strings.NewReader(script), &localOut); err != nil {
		t.Fatal(err)
	}

	_, srv, addr, _ := startServer(t, fem2.ServerConfig{})
	defer srv.Shutdown(context.Background())
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var remoteOut strings.Builder
	if err := cl.Run(context.Background(), strings.NewReader(script), &remoteOut, false); err != nil {
		t.Fatal(err)
	}

	if localOut.String() != remoteOut.String() {
		t.Errorf("network rendering diverged from local:\n--- local ---\n%s--- remote ---\n%s",
			localOut.String(), remoteOut.String())
	}
}

// TestServerConcurrentClientsRace is the headline acceptance test: many
// concurrent network clients on shared and distinct model names, plus
// clients that disconnect mid-solve, then a graceful drain — renderings
// byte-identical to local execution and no terminal job record lost.
func TestServerConcurrentClientsRace(t *testing.T) {
	const clients = 20      // ≥ 16; half share a model name, half are distinct
	const disconnectors = 4 // dial, submit a long solve, vanish mid-flight

	sys, srv, addr, servErr := startServer(t, fem2.ServerConfig{}, fem2.WithWorkers(8))

	// Reference renderings from a purely local system.
	refSys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	defer refSys.Close()
	ref := refSys.Session("ref")
	ctx := context.Background()
	want := make([]string, clients)
	models := make([]string, clients)
	seen := map[string]bool{}
	for i := range models {
		models[i] = "shared"
		if i%2 == 1 {
			models[i] = fmt.Sprintf("plate-%d", i)
		}
		if !seen[models[i]] {
			buildPlate(t, ref, models[i], 6, 4)
			seen[models[i]] = true
		}
		res, err := ref.Do(ctx, fem2.SolveCommand{Model: models[i], Set: "tip"})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.String()
	}

	var wg sync.WaitGroup
	got := make([]string, clients)
	jobIDs := make([]int64, clients)
	errc := make(chan error, clients+disconnectors)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := fem2.Dial(addr, fmt.Sprintf("user-%d", i))
			if err != nil {
				errc <- fmt.Errorf("user-%d dial: %w", i, err)
				return
			}
			defer cl.Close()
			remotePlate(t, cl, models[i], 6, 4)
			id, out, err := submitAndWait(cl, models[i])
			if err != nil {
				errc <- fmt.Errorf("user-%d: %w", i, err)
				return
			}
			jobIDs[i], got[i] = id, out
		}(i)
	}

	// The disconnectors: submit a solve big enough to still be in
	// flight, then slam the connection shut.  The server must cancel
	// exactly their jobs and keep serving everyone else.
	lostIDs := make([]int64, disconnectors)
	for i := 0; i < disconnectors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := fem2.Dial(addr, fmt.Sprintf("ghost-%d", i))
			if err != nil {
				errc <- fmt.Errorf("ghost-%d dial: %w", i, err)
				return
			}
			remotePlate(t, cl, fmt.Sprintf("ghost-model-%d", i), 120, 120)
			res, err := cl.Do(ctx, fem2.SubmitCommand{
				Cmd: fem2.SolveCommand{Model: fmt.Sprintf("ghost-model-%d", i), Set: "tip"}})
			if err != nil {
				errc <- fmt.Errorf("ghost-%d submit: %w", i, err)
				return
			}
			lostIDs[i] = res.(*fem2.SubmitResult).ID
			cl.Close() // mid-solve disconnect
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for i := range got {
		if got[i] != want[i] {
			t.Errorf("client %d (%s): network %q != local %q", i, models[i], got[i], want[i])
		}
	}

	// The ghosts' jobs reach a terminal state (cancelled by session
	// teardown, or done if completion won the race) without taking the
	// server down.
	for i, id := range lostIDs {
		deadline := time.Now().Add(10 * time.Second)
		for {
			snap, err := sys.Jobs.Status(fem2.JobID(id))
			if err != nil {
				t.Fatalf("ghost-%d job-%d: %v", i, id, err)
			}
			if snap.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("ghost-%d job-%d stuck in %v after disconnect", i, id, snap.State)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Graceful drain: no live jobs remain, so Shutdown returns clean,
	// Serve reports the closed sentinel, and every terminal job record
	// survives the drain.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-servErr:
		if !errors.Is(err, fem2.ErrServerClosed) {
			t.Errorf("Serve = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned after Shutdown")
	}
	for i, id := range jobIDs {
		snap, err := sys.Jobs.Status(fem2.JobID(id))
		if err != nil {
			t.Errorf("client %d job-%d lost across drain: %v", i, id, err)
			continue
		}
		if snap.State != fem2.JobDone {
			t.Errorf("client %d job-%d = %v across drain, want done", i, id, snap.State)
		}
	}
	if _, err := fem2.Dial(addr, "late"); err == nil {
		t.Error("Dial succeeded after Shutdown")
	}
}

// TestServerQuotaEnforced: with a one-job-per-connection bound, a
// saturated connection's submit fails with ErrJobQuota at once while
// other connections are unaffected.
func TestServerQuotaEnforced(t *testing.T) {
	_, srv, addr, _ := startServer(t,
		fem2.ServerConfig{MaxJobsPerSession: 1},
		fem2.WithWorkers(4))
	defer srv.Shutdown(context.Background())

	ctx := context.Background()
	cl, err := fem2.Dial(addr, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	remotePlate(t, cl, "big", 100, 100)
	res, err := cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "big", Set: "tip"}})
	if err != nil {
		t.Fatal(err)
	}
	id := res.(*fem2.SubmitResult).ID

	// Second submit while the first is live: rejected, and the wire
	// code classifies back to the quota sentinel.
	_, err = cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "big", Set: "tip"}})
	if !errors.Is(err, fem2.ErrJobQuota) {
		t.Errorf("over-quota submit = %v, want ErrJobQuota", err)
	}

	// Another tenant is not throttled by the first one's saturation.
	cl2, err := fem2.Dial(addr, "modest")
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	remotePlate(t, cl2, "small", 6, 4)
	if _, _, err := submitAndWait(cl2, "small"); err != nil {
		t.Errorf("other tenant blocked by first tenant's quota: %v", err)
	}

	if _, err := cl.Do(ctx, fem2.WaitCommand{ID: id}); err != nil {
		t.Fatal(err)
	}
	// Slot freed: the same connection may submit again.
	if _, _, err := submitAndWait(cl, "big"); err != nil {
		t.Errorf("submit after slot freed: %v", err)
	}
}

// TestServerNotifications: submitting a solve yields the pushed
// queued → running → done trail on the client's event stream, without
// any polling.
func TestServerNotifications(t *testing.T) {
	_, srv, addr, _ := startServer(t, fem2.ServerConfig{}, fem2.WithWorkers(2))
	defer srv.Shutdown(context.Background())

	cl, err := fem2.DialWithOptions(addr, "watcher", fem2.ClientOptions{Notify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	remotePlate(t, cl, "wing", 8, 4)
	res, err := cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "wing", Set: "tip"}})
	if err != nil {
		t.Fatal(err)
	}
	id := res.(*fem2.SubmitResult).ID

	var states []string
	timeout := time.After(10 * time.Second)
	for len(states) == 0 || states[len(states)-1] != "done" {
		select {
		case ev, ok := <-cl.Events():
			if !ok {
				t.Fatalf("event stream closed after %v", states)
			}
			if ev.Job != id {
				continue
			}
			states = append(states, ev.State)
		case <-timeout:
			t.Fatalf("no terminal notification; got %v", states)
		}
	}
	want := []string{"queued", "running", "done"}
	if len(states) != len(want) {
		t.Fatalf("notification trail = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("notification trail = %v, want %v", states, want)
		}
	}
}

// TestServerDrainGates: while the server drains behind a live job,
// mutating commands are refused, job control still answers, and the
// cancelled job's record survives the drain.
func TestServerDrainGates(t *testing.T) {
	sys, srv, addr, servErr := startServer(t, fem2.ServerConfig{}, fem2.WithWorkers(2))

	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	remotePlate(t, cl, "huge", 160, 160)
	res, err := cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "huge", Set: "tip"}})
	if err != nil {
		t.Fatal(err)
	}
	id := res.(*fem2.SubmitResult).ID

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()

	// Mutating verbs are refused once the drain gate is up (the first
	// few may still land before Shutdown flips the flag).
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		_, err := cl.Do(ctx, fem2.Define{Name: fmt.Sprintf("late-%d", i)})
		if err != nil && strings.Contains(err.Error(), "draining") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("define was never refused while draining")
		}
		time.Sleep(time.Millisecond)
	}

	// Job control still answers: status reads, cancel releases the
	// drain.
	if _, err := cl.Do(ctx, fem2.StatusCommand{ID: id}); err != nil {
		t.Errorf("status during drain: %v", err)
	}
	if _, err := cl.Do(ctx, fem2.CancelCommand{ID: id}); err != nil {
		t.Errorf("cancel during drain: %v", err)
	}

	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown = %v", err)
	}
	select {
	case err := <-servErr:
		if !errors.Is(err, fem2.ErrServerClosed) {
			t.Errorf("Serve = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned")
	}
	snap, err := sys.Jobs.Status(fem2.JobID(id))
	if err != nil {
		t.Fatalf("job record lost across drain: %v", err)
	}
	if !snap.State.Terminal() {
		t.Errorf("job state after drain = %v, want terminal", snap.State)
	}
}

// TestServerDrainFinishesASynchronousSolve: a synchronous solve in
// flight when Shutdown starts is work the drain waits for, as it waits
// for a job.  One that ends within the drain's context gets its result,
// and Shutdown returns nil.
func TestServerDrainFinishesASynchronousSolve(t *testing.T) {
	sys, srv, addr, _ := startServer(t, fem2.ServerConfig{})
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	remotePlate(t, cl, "big", 100, 100)

	type outcome struct {
		res fem2.Result
		err error
	}
	solved := make(chan outcome, 1)
	go func() {
		res, err := cl.Do(context.Background(), fem2.SolveCommand{Model: "big", Set: "tip"})
		solved <- outcome{res, err}
	}()
	// The server's only connection is conn-1; its session owns the model.
	for !sys.Jobs.Held("eng@conn-1", "big") {
		select {
		case o := <-solved:
			t.Fatalf("the solve ended (%v) before it was seen holding its model", o.err)
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v, want nil: the solve ends well within the drain", err)
	}
	select {
	case o := <-solved:
		if o.err != nil {
			t.Fatalf("the synchronous solve in flight at Shutdown: %v; want its result", o.err)
		}
		if _, ok := o.res.(*fem2.SolveResult); !ok {
			t.Errorf("the synchronous solve returned %T, want *fem2.SolveResult", o.res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the synchronous solve never returned after Shutdown")
	}
}

// TestServerPingVersionOverWire pins the health verbs' remote
// renderings.
func TestServerPingVersionOverWire(t *testing.T) {
	_, srv, addr, _ := startServer(t, fem2.ServerConfig{})
	defer srv.Shutdown(context.Background())
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	res, err := cl.Do(ctx, fem2.PingCommand{})
	if err != nil || res.String() != "pong" {
		t.Errorf("ping = %q, %v", res, err)
	}
	res, err = cl.Do(ctx, fem2.VersionCommand{})
	want := fmt.Sprintf("fem2 %s (protocol %d, storage mem)", fem2.Release, fem2.ProtocolVersion)
	if err != nil || res.String() != want {
		t.Errorf("version = %q, %v; want %q", res, err, want)
	}
	if got := cl.Storage(); got != "mem" {
		t.Errorf("welcome storage = %q, want %q", got, "mem")
	}
}

// TestStressesAfterRegenerateOverWire is the regression for a request
// that used to kill the daemon: the workspace kept the solution of the
// model a generate replaced, and stresses indexed the new, larger grid
// into the old displacement vector — a panic nothing in the server
// recovers, taking every tenant's session down.  A replacement now drops
// the solution, so the verb must answer "no solution" (not found), and
// the daemon must keep serving.
func TestStressesAfterRegenerateOverWire(t *testing.T) {
	_, srv, addr, _ := startServer(t, fem2.ServerConfig{})
	defer srv.Shutdown(context.Background())
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	remotePlate(t, cl, "p", 4, 3)
	if _, err := cl.Do(ctx, fem2.SolveCommand{Model: "p", Set: "tip"}); err != nil {
		t.Fatal(err)
	}
	remotePlate(t, cl, "p", 8, 6)
	_, err = cl.Do(ctx, fem2.StressesCommand{Model: "p"})
	if want := `model "p" has no solution`; !errors.Is(err, fem2.ErrNotFound) || !strings.Contains(err.Error(), want) {
		t.Fatalf("stresses after regenerate: err = %v, want it to say %q", err, want)
	}
	if res, err := cl.Do(ctx, fem2.PingCommand{}); err != nil || res.String() != "pong" {
		t.Fatalf("ping after the refused stresses = %q, %v", res, err)
	}
	// Solving the new grid makes its stresses recoverable again.
	if _, err := cl.Do(ctx, fem2.SolveCommand{Model: "p", Set: "tip"}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Do(ctx, fem2.StressesCommand{Model: "p"})
	if err != nil || res.(*fem2.StressesResult).Elements != 96 {
		t.Fatalf("stresses after re-solving = %v, %v", res, err)
	}
}
