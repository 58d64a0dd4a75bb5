// The benchmarks that stay beside the tests.  benchmark/ (BENCHMARK.json,
// benchmark/README.md) is the repository's one yardstick: it drives a
// real fem2d over TCP and has a per-layer probe for every kernel, codec,
// store and scheduler cost.  A Benchmark function lives here only if it
// is the in-process twin of one of that harness's workloads — the place
// to take a profile or read allocs/op while working on that workload —
// or the only measurement of something the harness does not cover yet;
// each says which.  CI runs them all once (-benchtime 1x) so they keep
// compiling and running.
package fem2_test

import (
	"context"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	fem2 "repro"
	"repro/internal/fem"
	"repro/internal/job"
)

// BenchmarkSubstructureSolve is kept because it is the only measurement
// of the one host-parallel path in the solver: the substructured solve of
// a 32×8 plate in 8 substructures, whose condensations (interior banded
// factor + Schur complement, one substructure each) fan out over a
// GOMAXPROCS-wide pool while the interface solve and back-substitution
// are the serial tail.  Nobody sets the pool's width; run it as
// `-cpu 1,2` to see what the second core buys (CHANGES.md PR 22 has the
// table that kept the pool).
func BenchmarkSubstructureSolve(b *testing.B) {
	o := fem.RectGridOpts{NX: 32, NY: 8, W: 32, H: 8, Mat: fem.Steel(), ClampLeft: true}
	m, err := fem.RectGrid("bench", o)
	if err != nil {
		b.Fatal(err)
	}
	ls := fem.EndLoad("tip", o, 0, -2000)
	s, err := fem.PartitionByX(m, 8)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fem.SolveSubstructured(ctx, m, s, ls, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerThroughput/submit-wait-steady is kept as the in-process
// twin of the benchmark's iterate_small workload: one client, closed-loop
// submit+wait on the 8x6 plate, timed only once the scheduler's retention
// window is full — the steady state a long-lived daemon is in, where
// every submit also evicts the oldest job, and (the mem store dying with
// the process) deletes its journal record in the batch that writes the
// new one.  Run with -benchmem: allocs/op is
// the ceiling a service-path change must not raise.
func BenchmarkServerThroughput(b *testing.B) {
	b.Run("submit-wait-steady", func(b *testing.B) {
		cl := steadyClient(b)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, _, err := submitAndWait(cl, "plate"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
}

// steadyClient serves a one-worker system on loopback and returns a client
// of it whose 8x6 plate has filled the scheduler's retention window with
// submit+wait jobs: the steady state of BenchmarkServerThroughput's
// submit-wait-steady.  Both close when tb ends.
func steadyClient(tb testing.TB) *fem2.Client {
	tb.Helper()
	sys, err := fem2.New(fem2.WithWorkers(1))
	if err != nil {
		tb.Fatal(err)
	}
	srv := fem2.NewServer(sys, fem2.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Shutdown(context.Background()) })
	cl, err := fem2.Dial(ln.Addr().String(), "steady")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	remotePlate(tb, cl, "plate", 8, 6)
	for n := 0; n <= job.DefaultRetainedJobs; n++ {
		if _, _, err := submitAndWait(cl, "plate"); err != nil {
			tb.Fatal(err)
		}
	}
	return cl
}

// TestSubmitWaitSteadyAllocations holds submit-wait-steady's job, client
// and server in one process, at its counts: 48 allocations and 3 128 B a
// job (linux/amd64, go1.24).  The mean count reads 48.00–48.01 and the
// bytes wander by a few with the window's amortised growth, so the byte
// ceiling has one 16-byte block of slack; an allocation in each socket
// read or write, four of them a job, is 4 more allocations and 64 B or
// more.  The race detector's instrumentation allocates on its own.
func TestSubmitWaitSteadyAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 4 096-job window")
	}
	if raceBuild() {
		t.Skip("-race allocates on the service path")
	}
	const allocsCeiling, bytesCeiling, jobs = 48, 3128 + 16, 2000
	cl := steadyClient(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < jobs; n++ {
		if _, _, err := submitAndWait(cl, "plate"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / jobs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	t.Logf("a submit+wait job allocates %.2f times, %.1f B", allocs, bytes)
	if math.Round(allocs) > allocsCeiling || bytes > bytesCeiling {
		t.Errorf("a submit+wait job allocates %.2f times, %.1f B; ceiling %d, %d B", allocs, bytes, allocsCeiling, bytesCeiling)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// BenchmarkWarmResolve is kept as the in-process twin of the benchmark's
// resolve_large workload.  It measures the engineer's re-solve: an
// unchanged 40×24 plate (2050 dof, 1920 CSTs) solved again and its
// stresses recovered, through Session.Do.  Factor and symbolic assembly
// are both warm, one walk over the unchanged plate skips the numeric
// re-assembly, and its pass token lets the factor skip its value compare,
// so a job is the walk + triangular solve + residual SpMV + stress
// recovery; -benchmem shows a few hundred bytes a job, none of them in
// proportion to the plate (TestWarmResolveAllocationCeiling).
func BenchmarkWarmResolve(b *testing.B) {
	s, job := warmResolveSession(b, "40 24 40 24")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cmd := range job {
			if _, err := s.Do(ctx, cmd); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// warmResolveSession returns a session holding a solved, stress-recovered
// clamped grid g of the given "nx ny w h", and BenchmarkWarmResolve's job
// on it: solve g again and recover its stresses.
func warmResolveSession(tb testing.TB, grid string) (*fem2.Session, []fem2.Command) {
	tb.Helper()
	sys, err := fem2.New()
	if err != nil {
		tb.Fatal(err)
	}
	s := sys.Session("bench")
	ctx := context.Background()
	cmds := make([]fem2.Command, 0, 4)
	for _, line := range []string{
		"generate grid g " + grid + " clamp-left",
		"load g l endload 0 -1000",
		"solve g l method cholesky-env",
		"stresses g",
	} {
		cmd, err := fem2.Parse(line)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Do(ctx, cmd); err != nil {
			tb.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	return s, cmds[2:]
}

// TestWarmResolveAllocationCeiling holds BenchmarkWarmResolve's job to a
// byte ceiling that does not grow with the model: 4 KB a job on an 8×4
// grid and on the 40×24 plate alike, whose U alone is 16 KB and whose
// stresses are 92 KB.  The solve's reduced vectors are the retained
// workspace's scratch, and each result is written over the one its
// predecessor replaced.
func TestWarmResolveAllocationCeiling(t *testing.T) {
	const ceiling, runs = 4 << 10, 20
	for _, grid := range []string{"8 4 8 4", "40 24 40 24"} {
		s, job := warmResolveSession(t, grid)
		ctx := context.Background()
		run := func() {
			for _, cmd := range job {
				if _, err := s.Do(ctx, cmd); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // the first run leaves a spare of each result behind
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > ceiling {
			t.Errorf("grid %s: a warm solve + stresses allocates %d B, ceiling %d B", grid, per, ceiling)
		}
	}
}

// TestParallelSolveBytesCeiling bounds what one parallel solve on the
// simulated machine allocates: a 16×16 plate solved on 4 workers, after a
// warm-up solve, stays under 200 KB per solve.  The machine's activity is
// counted, not logged: a record per event would take several times this.
func TestParallelSolveBytesCeiling(t *testing.T) {
	const ceiling, runs = 200 << 10, 10
	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session("eng")
	for _, line := range []string{
		"generate grid g 16 16 16 16 clamp-left",
		"load g l endload 0 -1000",
	} {
		if _, err := s.Execute(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	solve := func() {
		if _, err := s.Execute("solve g l parallel 4"); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > ceiling {
		t.Errorf("a parallel solve allocates %d B, ceiling %d B", per, ceiling)
	}
}

// BenchmarkRegenerateSolve is kept as the in-process twin of the
// benchmark's refactor_large workload.  It measures the design iteration:
// a new modulus, the same 40×24 plate regenerated under the same name,
// its end load, and a cholesky-env solve, through Session.Do.  The factor
// must be recomputed every time (the check below), but the regenerated
// model inherits the symbolic assembly of the one it replaces, so a job
// is grid generation + numeric assembly + refactor + triangular solve.
// "plate" is the workload's regular grid, whose 1920 CSTs are two
// distinct stiffnesses; "jittered" moves every interior node, so every
// CST misses the stiffness memo — the memo's cost on traffic it cannot
// help.
func BenchmarkRegenerateSolve(b *testing.B) {
	for _, tc := range []struct{ name, generate string }{
		{"plate", "generate grid g 40 24 40 24 clamp-left"},
		{"jittered", "generate grid g 40 24 40 24 clamp-left jitter 0.2 29"},
	} {
		b.Run(tc.name, func(b *testing.B) { regenerateSolve(b, tc.generate) })
	}
}

func regenerateSolve(b *testing.B, generate string) {
	sys, err := fem2.New()
	if err != nil {
		b.Fatal(err)
	}
	s := sys.Session("bench")
	ctx := context.Background()
	var cmds []fem2.Command
	for _, line := range []string{
		generate,
		"load g l endload 0 -1000",
		"solve g l method cholesky-env",
	} {
		cmd, err := fem2.Parse(line)
		if err != nil {
			b.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	job := func(i int) {
		if _, err := s.Do(ctx, fem2.SetMaterial{E: 200000 + float64(i), Nu: 0.3, T: 10, A: 100}); err != nil {
			b.Fatal(err)
		}
		var res fem2.Result
		for _, cmd := range cmds {
			if res, err = s.Do(ctx, cmd); err != nil {
				b.Fatal(err)
			}
		}
		if !res.(*fem2.SolveResult).Refactored {
			b.Fatal("a regenerated plate with a new modulus rode a warm factor")
		}
	}
	job(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		job(i)
	}
}

// BenchmarkColdSolve is the in-process twin of a large-plate daemon's
// set-up, which resolve_large's daemon_rss_mb reads: a fresh system's
// session generates the 40×24 plate, loads its end and solves it once by
// cholesky-env, paying the symbolic assembly, the plan and the factor in
// full.  Run it with -benchmem: B/op is what a cold solve hands the
// collector (TestColdSolveAllocationCeiling bounds the solve itself).
func BenchmarkColdSolve(b *testing.B) {
	cmds := coldSolveCommands(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := fem2.New()
		if err != nil {
			b.Fatal(err)
		}
		s := sys.Session("bench")
		for _, cmd := range cmds {
			if _, err := s.Do(ctx, cmd); err != nil {
				b.Fatal(err)
			}
		}
		sys.Close()
	}
}

// coldSolveCommands parses BenchmarkColdSolve's commands: generate the
// 40×24 plate, load its end, solve it by cholesky-env.
func coldSolveCommands(tb testing.TB) []fem2.Command {
	tb.Helper()
	var cmds []fem2.Command
	for _, line := range []string{
		"generate grid g 40 24 40 24 clamp-left",
		"load g l endload 0 -1000",
		"solve g l method cholesky-env",
	} {
		cmd, err := fem2.Parse(line)
		if err != nil {
			tb.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}

// TestColdSolveAllocationCeiling bounds the first cholesky-env solve of
// the 40×24 plate in a fresh session: it allocates at most 2.9 MiB in all
// (MemStats.TotalAlloc around the call) and keeps at most 2.0 MiB live
// once the collector has run with the session alive (HeapAlloc): 2.7 MiB
// and 1.85 MiB.  The factor cache's copy of the factored values made
// that 2.9 MiB and 2.06 MiB; before that, the symbolic phase's []int
// coordinates and sort buffers, its second scatter map and its ColIdx at
// the coordinate count made it 5.1 MiB and 2.4 MiB.
func TestColdSolveAllocationCeiling(t *testing.T) {
	const allocCeiling, keptCeiling = 29 << 20 / 10, 20 << 20 / 10
	cmds := coldSolveCommands(t)
	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session("eng")
	ctx := context.Background()
	for _, cmd := range cmds[:2] {
		if _, err := s.Do(ctx, cmd); err != nil {
			t.Fatal(err)
		}
	}
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := s.Do(ctx, cmds[2]); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&mid)
	runtime.GC()
	runtime.ReadMemStats(&after)
	alloc := int64(mid.TotalAlloc - before.TotalAlloc)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if alloc > allocCeiling || kept > keptCeiling {
		t.Errorf("a cold cholesky-env solve of the 40×24 plate allocates %d B and keeps %d B; ceilings %d B and %d B", alloc, kept, allocCeiling, keptCeiling)
	}
	t.Logf("a cold solve allocates %d B and keeps %d B", alloc, kept)
	runtime.KeepAlive(s)
}
