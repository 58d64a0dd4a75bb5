// Acceptance tests for ISSUE 9's observability subsystem: server-side
// counters move when a scripted wire session drives the daemon, the
// stats verb renders identically over the wire and locally.  CI runs
// the server test under -race.
package fem2_test

import (
	"context"
	"strings"
	"testing"

	fem2 "repro"
	"repro/internal/fem"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// statVal finds a named entry in a stats table, -1 when absent.
func statVal(entries []fem2.StatEntry, name string) int64 {
	for _, e := range entries {
		if e.Name == name {
			return e.Value
		}
	}
	return -1
}

// remoteCounters asks the daemon for its stats and returns the counter
// table.
func remoteCounters(t *testing.T, cl *fem2.Client) []fem2.StatEntry {
	t.Helper()
	res, err := cl.Do(context.Background(), fem2.StatsCommand{})
	if err != nil {
		t.Fatal(err)
	}
	return res.(*fem2.StatsResult).Counters
}

// statHist finds a named histogram in a stats result, nil when absent.
func statHist(hists []fem2.StatHistogram, name string) *fem2.StatHistogram {
	for i := range hists {
		if hists[i].Name == name {
			return &hists[i]
		}
	}
	return nil
}

// TestServerCountersMoveOverWire drives a scripted wire session —
// ping, model build, an asynchronous solve — and then asks the server
// for its stats over the same connection: the frame counters, job
// counters, connection gauge, and per-verb latency histograms must all
// have moved, and the stats rendering must survive a wire round trip
// byte-identically.
func TestServerCountersMoveOverWire(t *testing.T) {
	sys, srv, addr, _ := startServer(t, fem2.ServerConfig{})
	defer srv.Shutdown(context.Background())
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if _, err := cl.Do(ctx, fem2.PingCommand{}); err != nil {
		t.Fatal(err)
	}
	remotePlate(t, cl, "plate", 8, 4)
	if _, _, err := submitAndWait(cl, "plate"); err != nil {
		t.Fatal(err)
	}

	res, err := cl.Do(ctx, fem2.StatsCommand{})
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := res.(*fem2.StatsResult)
	if !ok {
		t.Fatalf("stats answered %T, want *StatsResult", res)
	}

	for _, c := range []struct {
		name string
		min  int64
	}{
		{obs.ServerFramesIn, 5},  // hello + ping + 2 builds + submit + wait + stats
		{obs.ServerFramesOut, 5}, // their responses
		{obs.JobSubmitted, 1},
		{obs.JobDone, 1},
	} {
		if got := statVal(sr.Counters, c.name); got < c.min {
			t.Errorf("counter %s = %d, want >= %d", c.name, got, c.min)
		}
	}
	if got := statVal(sr.Gauges, obs.ServerConnections); got < 1 {
		t.Errorf("gauge %s = %d, want >= 1 (this connection)", obs.ServerConnections, got)
	}
	if h := statHist(sr.Histograms, obs.ServerRequestPrefix+"ping"); h == nil || h.Count < 1 {
		t.Errorf("histogram %sping missing or empty: %+v", obs.ServerRequestPrefix, h)
	}
	if h := statHist(sr.Histograms, obs.JobLatencyPrefix+"solve"); h == nil || h.Count < 1 {
		t.Errorf("histogram %ssolve missing or empty: %+v", obs.JobLatencyPrefix, h)
	}

	// The rendering a REPL would print must survive the codec untouched
	// — the "byte-identical over the wire" guarantee for the new verb.
	data, err := fem2.MarshalResult(sr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fem2.UnmarshalResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != sr.String() {
		t.Errorf("stats rendering diverged across the codec:\n%q\nvs\n%q", back.String(), sr.String())
	}

	// The server-side snapshot agrees the work happened.
	snap := sys.StatsSnapshot()
	if snap.Counter(obs.JobDone) < 1 {
		t.Errorf("local snapshot job.done = %d, want >= 1", snap.Counter(obs.JobDone))
	}
	if snap.Counter(obs.ServerFramesIn) < statVal(sr.Counters, obs.ServerFramesIn) {
		t.Errorf("local snapshot frames_in went backwards: %d < %d",
			snap.Counter(obs.ServerFramesIn), statVal(sr.Counters, obs.ServerFramesIn))
	}
}

// TestServerFramesAndFlushesPerJob pins what a closed-loop submit+wait
// job costs the socket.  A connection that did not subscribe is sent the
// two replies and nothing else: two frames in two flushes.  A subscribed
// one is sent exactly five frames (queued, running, done and the two
// replies), carried by at most four flushes, because the queued event
// leaves on the submit reply's write instead of one of its own;
// frames_out / flushes in stats is the coalescing.
func TestServerFramesAndFlushesPerJob(t *testing.T) {
	for _, c := range []struct {
		name               string
		notify             bool
		frames, maxFlushes int64
	}{
		{"unsubscribed", false, 2, 2},
		{"subscribed", true, 5, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys, srv, addr, _ := startServer(t, fem2.ServerConfig{})
			defer srv.Shutdown(context.Background())
			cl, err := fem2.DialWithOptions(addr, "eng", fem2.ClientOptions{Notify: c.notify})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			remotePlate(t, cl, "plate", 8, 6)
			if _, _, err := submitAndWait(cl, "plate"); err != nil {
				t.Fatal(err)
			}

			const jobs = 200
			// The wait reply is a job's last frame and is counted before it is
			// written, so a snapshot between jobs counts whole jobs.
			before := sys.StatsSnapshot()
			for n := 0; n < jobs; n++ {
				if _, _, err := submitAndWait(cl, "plate"); err != nil {
					t.Fatal(err)
				}
			}
			after := sys.StatsSnapshot()
			moved := func(name string) int64 { return after.Counter(name) - before.Counter(name) }
			if got := moved(obs.ServerFramesIn); got != 2*jobs {
				t.Errorf("%s moved by %d over %d jobs, want %d", obs.ServerFramesIn, got, jobs, 2*jobs)
			}
			if got := moved(obs.ServerFramesOut); got != c.frames*jobs {
				t.Errorf("%s moved by %d over %d jobs, want exactly %d", obs.ServerFramesOut, got, jobs, c.frames*jobs)
			}
			if got := moved(obs.ServerFlushes); got > c.maxFlushes*jobs || got < 2*jobs {
				t.Errorf("%s moved by %d over %d jobs, want at most %d (and at least the %d replies)", obs.ServerFlushes, got, jobs, c.maxFlushes*jobs, 2*jobs)
			}
			if got := after.Counter(obs.ServerEventsDropped); got != 0 {
				t.Errorf("%s = %d on a connection that is being read", obs.ServerEventsDropped, got)
			}
		})
	}
}

// TestWarmSolvesReuseSymbolicAssembly pins the assemble.* counters over
// the wire: the first solve of a model builds its symbolic assembly,
// and N further solves of the unchanged model — scheduled and
// synchronous alike — move assemble.reused and assemble.unchanged by
// exactly N and assemble.symbolic by 0, while factor.refactors stays
// put.
func TestWarmSolvesReuseSymbolicAssembly(t *testing.T) {
	_, srv, addr, _ := startServer(t, fem2.ServerConfig{})
	defer srv.Shutdown(context.Background())
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	remotePlate(t, cl, "plate", 8, 4)
	if _, _, err := submitAndWait(cl, "plate"); err != nil {
		t.Fatal(err)
	}
	cold := remoteCounters(t, cl)
	if got := statVal(cold, obs.AssembleSymbolic); got != 1 {
		t.Errorf("%s = %d after the first solve, want 1", obs.AssembleSymbolic, got)
	}
	if got := statVal(cold, obs.AssembleReused); got != 0 {
		t.Errorf("%s = %d after the first solve, want 0", obs.AssembleReused, got)
	}

	const n = 6
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			_, _, err = submitAndWait(cl, "plate")
		} else {
			_, err = cl.Do(ctx, fem2.SolveCommand{Model: "plate", Set: "tip"})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	warm := remoteCounters(t, cl)
	for _, c := range []struct {
		name string
		want int64
	}{
		{obs.AssembleReused, n},
		{obs.AssembleUnchanged, n},
		{obs.AssembleSymbolic, 0},
		{obs.FactorRefactors, 0},
		{obs.FactorHits, n},
	} {
		if got := statVal(warm, c.name) - statVal(cold, c.name); got != c.want {
			t.Errorf("%d warm solves moved %s by %d, want %d", n, c.name, got, c.want)
		}
	}
}

// TestRegeneratedPlateKeepsSymbolicAssembly pins the hand-over over the
// wire: N rounds of material + the same generate grid + solve replace
// the model object N times, yet only the first solve builds a symbolic
// assembly — every later one inherits it.  With a new modulus each
// round every solve re-assembles and refactors, so every reply says
// Refactored; with the same modulus the regenerated plate reads back the
// inputs the inherited matrix was assembled from, so every solve skips
// the numeric assembly and answers from the warm factor.  factor.flops
// moves with the refactorisations, by the probe's count each.
func TestRegeneratedPlateKeepsSymbolicAssembly(t *testing.T) {
	_, srv, addr, _ := startServer(t, fem2.ServerConfig{})
	defer srv.Shutdown(context.Background())
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const n = 5
	type move struct {
		name string
		want int64
	}
	rounds := func(label string, modulus func(i int) float64, refactored bool, moves []move) {
		t.Helper()
		before := remoteCounters(t, cl)
		for i := 0; i < n; i++ {
			if _, err := cl.Do(ctx, fem2.SetMaterial{E: modulus(i), Nu: 0.3, T: 10, A: 100}); err != nil {
				t.Fatal(err)
			}
			remotePlate(t, cl, "plate", 8, 4)
			res, err := cl.Do(ctx, fem2.SolveCommand{Model: "plate", Set: "tip", Method: "cholesky-env"})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.(*fem2.SolveResult).Refactored; got != refactored {
				t.Errorf("%s, round %d: Refactored = %v, want %v", label, i, got, refactored)
			}
		}
		after := remoteCounters(t, cl)
		for _, c := range moves {
			if got := statVal(after, c.name) - max(statVal(before, c.name), 0); got != c.want {
				t.Errorf("%s: %d regenerate+solve rounds moved %s by %d, want %d", label, n, c.name, got, c.want)
			}
		}
	}
	rounds("new modulus each round", func(i int) float64 { return 200000 + 1000*float64(i) }, true, []move{
		{obs.AssembleSymbolic, 1},
		{obs.AssembleReused, n - 1},
		{obs.AssembleUnchanged, 0},
		{obs.FactorRefactors, n},
		{obs.FactorFlops, n * plateRefactorFlops(t, 8, 4)},
		{obs.FactorMisses, 1},
		{obs.FactorHits, 0},
	})
	last := 200000 + 1000*float64(n-1)
	rounds("same modulus regenerated", func(int) float64 { return last }, false, []move{
		{obs.AssembleSymbolic, 0},
		{obs.AssembleReused, n},
		{obs.AssembleUnchanged, n},
		{obs.FactorRefactors, 0},
		{obs.FactorFlops, 0},
		{obs.FactorMisses, 0},
		{obs.FactorHits, n},
	})
}

// plateRefactorFlops is the benchmark probe's linalg.refactor_flops taken
// on remotePlate's nx×ny plate (unit cells, clamped on the left): the
// flops of one cholesky-env refactorisation, which depend on the plate's
// topology alone.
func plateRefactorFlops(t *testing.T, nx, ny int) int64 {
	t.Helper()
	m, err := fem.RectGrid("plate", fem.RectGridOpts{NX: nx, NY: ny, W: float64(nx), H: float64(ny), Mat: fem.Steel(), ClampLeft: true})
	if err != nil {
		t.Fatal(err)
	}
	asm, err := fem.Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := linalg.PlanOptsFor(linalg.BackendCholeskyEnv)
	plan, err := linalg.NewDirectPlan(asm.K, opts)
	if err != nil {
		t.Fatal(err)
	}
	var st linalg.Stats
	if err := plan.Refactor(asm.K, &st); err != nil {
		t.Fatal(err)
	}
	return st.Flops
}

// TestStatsAnswersLocally pins the local path: a plain session answers
// the stats verb from its system's registry, counting its own jobs.
func TestStatsAnswersLocally(t *testing.T) {
	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session("eng")
	for _, line := range []string{
		"generate grid g 6 4 6 4 clamp-left",
		"load g tip endload 0 -100",
		"solve g tip",
	} {
		if _, err := s.Execute(line); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Execute("stats")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Do(context.Background(), fem2.StatsCommand{})
	if err != nil {
		t.Fatal(err)
	}
	sr := res.(*fem2.StatsResult)
	if got := statVal(sr.Counters, obs.FactorMisses); got < 1 {
		t.Errorf("factor.misses = %d, want >= 1 after a cold solve", got)
	}
	// The per-backend solve histogram names the backend that actually
	// ran, not the requested "auto".
	var perBackend *fem2.StatHistogram
	for i := range sr.Histograms {
		if strings.HasPrefix(sr.Histograms[i].Name, obs.JobLatencySolvePrefix) {
			perBackend = &sr.Histograms[i]
		}
	}
	if perBackend == nil {
		t.Errorf("no %s<backend> histogram after a solve", obs.JobLatencySolvePrefix)
	} else {
		if perBackend.Count < 1 {
			t.Errorf("%s count = %d, want >= 1", perBackend.Name, perBackend.Count)
		}
		if backend := strings.TrimPrefix(perBackend.Name, obs.JobLatencySolvePrefix); backend == "" || backend == "auto" {
			t.Errorf("per-backend histogram named %q; want the concrete backend", perBackend.Name)
		}
	}
	if out == "" {
		t.Error("stats rendered empty")
	}
}
