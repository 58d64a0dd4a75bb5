package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/command"
	"repro/internal/fem"
	"repro/internal/obs"
)

func TestFEM2LayersCompleteAndValid(t *testing.T) {
	layers := FEM2Layers()
	if len(layers) != 4 {
		t.Fatalf("layers = %d, want 4", len(layers))
	}
	wantOrder := []obs.Level{obs.LevelAUVM, obs.LevelNAVM, obs.LevelSPVM, obs.LevelARCH}
	for i, l := range layers {
		if l.Level != wantOrder[i] {
			t.Errorf("layer %d is %v, want %v", i, l.Level, wantOrder[i])
		}
		if err := l.Validate(); err != nil {
			t.Errorf("layer %v invalid: %v", l.Level, err)
		}
	}
	// The SPVM layer's messages: the three the NAVM sends are backed by
	// their message types, the other four of the paper's seven are
	// marked paper-only.
	backing := map[string]string{}
	for _, r := range layers[2].DataObjects {
		backing[r.Text] = r.Backing
	}
	for text, want := range map[string]string{
		"task message: initiate K replications of a task of type T": "spvm.MsgInitiate",
		"task message: terminate and notify parent":                 "spvm.MsgTerminate",
		"task message: load code/constants":                         "spvm.MsgLoadCode",
		"task messages: pause, resume, remote call, remote return":  PaperOnly,
	} {
		if got, ok := backing[text]; !ok || got != want {
			t.Errorf("SPVM data object %q backed by %q (present %v), want %q", text, got, ok, want)
		}
	}
}

func TestLayerSpecValidateCatchesGaps(t *testing.T) {
	l := &LayerSpec{Level: obs.LevelAUVM, Audience: "x"}
	if err := l.Validate(); err == nil {
		t.Error("empty layer validated")
	}
	full := FEM2Layers()[0]
	bad := *full
	bad.Grammars = []string{"no-such-grammar"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown grammar accepted")
	}
}

// TestLayerSpecValidateIsDeterministic validates a spec missing two
// categories many times: it must name the first in the paper's order
// every time.
func TestLayerSpecValidateIsDeterministic(t *testing.T) {
	l := *FEM2Layers()[0]
	l.Operations, l.StorageManagement = nil, nil
	for i := 0; i < 100; i++ {
		if err := l.Validate(); err == nil || err.Error() != "core: layer AUVM has no operations" {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestLayerSpecString(t *testing.T) {
	s := FEM2Layers()[1].String()
	for _, want := range []string{"NAVM", "Data objects", "windows", "forall", "Formal grammars"} {
		if !strings.Contains(s, want) {
			t.Errorf("layer string missing %q", want)
		}
	}
}

func TestNewSystemWiring(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Clusters = 2
	cfg.PEsPerCluster = 3
	sys, err := Open(Options{Arch: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine == nil || sys.Runtime == nil || sys.Database == nil {
		t.Fatal("system missing components")
	}
	if err := sys.ValidateDesign(); err != nil {
		t.Fatal(err)
	}
	// One kernel per cluster.
	if len(sys.Runtime.Kernels()) != 2 {
		t.Errorf("kernels = %d", len(sys.Runtime.Kernels()))
	}
	// Sessions are created on demand, cached, share the DB.
	a := sys.Session("alice")
	if sys.Session("alice") != a {
		t.Error("session not cached")
	}
	b := sys.Session("bob")
	if a == b {
		t.Error("distinct users share a session")
	}
	if got := sys.Users(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Errorf("Users = %v", got)
	}
	if a.DB != b.DB {
		t.Error("users do not share the database")
	}
	if a.RT != sys.Runtime {
		t.Error("session not wired to runtime")
	}
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("zero config accepted")
	}
}

// solveWorkload is a representative upper-layer computation: a plate
// model solved in parallel through the AUVM command language.
func solveWorkload(nx, ny, p int) Workload {
	return func(sys *System) error {
		s := sys.Session("eng")
		cmds := []string{
			"generate grid plate " +
				itoa(nx) + " " + itoa(ny) + " " + itoa(nx) + " " + itoa(ny) + " clamp-left",
			"load plate tip endload 0 -1000",
			"solve plate tip parallel " + itoa(p),
		}
		for _, c := range cmds {
			if _, err := s.Execute(c); err != nil {
				return err
			}
		}
		return nil
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestEvaluateCollectsRequirements(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Clusters = 2
	cfg.PEsPerCluster = 4
	req, err := Evaluate(cfg, solveWorkload(6, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if req.Makespan == 0 {
		t.Error("no makespan")
	}
	if req.Flops == 0 {
		t.Error("no flops")
	}
	if req.Messages == 0 {
		t.Error("no messages")
	}
	if req.Utilization <= 0 || req.Utilization > 1 {
		t.Errorf("utilization = %g", req.Utilization)
	}
}

func TestEvaluatePropagatesWorkloadError(t *testing.T) {
	cfg := arch.DefaultConfig()
	boom := errors.New("boom")
	if _, err := Evaluate(cfg, func(sys *System) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("workload error lost: %v", err)
	}
}

// TestEvaluateClosesItsSystem: an evaluation whose workload starts the
// job scheduler's workers leaves no goroutine behind.
func TestEvaluateClosesItsSystem(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Clusters = 2
	cfg.PEsPerCluster = 4
	submitAndWait := func(sys *System) error {
		ctx := context.Background()
		s := sys.Session("eng")
		for _, line := range []string{"generate grid g 4 2 4 2 clamp-left", "load g l endload 0 -100"} {
			if _, err := s.Execute(line); err != nil {
				return err
			}
		}
		id, err := s.SubmitAsync(ctx, command.Solve{Model: "g", Set: "l"})
		if err != nil {
			return err
		}
		_, err = sys.Jobs.Wait(ctx, id)
		return err
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Evaluate(cfg, submitAndWait); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 5 evaluations, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDesignIteratorPicksFasterConfig(t *testing.T) {
	small := arch.DefaultConfig()
	small.Clusters = 1
	small.PEsPerCluster = 2
	big := arch.DefaultConfig()
	big.Clusters = 4
	big.PEsPerCluster = 6
	it := &DesignIterator{
		Candidates: []arch.Config{small, big},
		Workload:   solveWorkload(8, 6, 8),
	}
	best, history, err := it.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Fatalf("history = %d records", len(history))
	}
	if best.Config.Clusters != 4 {
		t.Errorf("iterator picked %d clusters; the larger machine should win on makespan (history: %+v)",
			best.Config.Clusters, history)
	}
	// Exactly one record can carry Best at each improvement; the last
	// Best record must match the returned config.
	var lastBest *IterationRecord
	for i := range history {
		if history[i].Best {
			lastBest = &history[i]
		}
	}
	if lastBest == nil || lastBest.Req.Config.Clusters != best.Config.Clusters {
		t.Error("history Best flag inconsistent with result")
	}
}

func TestDesignIteratorRecordsInfeasible(t *testing.T) {
	// A candidate whose shared memory cannot hold the model fails but
	// stays in the record.
	tiny := arch.DefaultConfig()
	tiny.SharedMemoryWords = 8
	ok := arch.DefaultConfig()
	it := &DesignIterator{
		Candidates: []arch.Config{tiny, ok},
		Workload: func(sys *System) error {
			root, err := sys.Runtime.NewRootTask()
			if err != nil {
				return err
			}
			_, err = root.NewArray("big", 64, 64)
			return err
		},
	}
	best, history, err := it.Run()
	if err != nil {
		t.Fatal(err)
	}
	if best.Config.SharedMemoryWords != ok.SharedMemoryWords {
		t.Error("iterator picked the infeasible config")
	}
	if history[0].Score != -1 {
		t.Error("infeasible candidate not marked")
	}
}

func TestDesignIteratorNoCandidates(t *testing.T) {
	it := &DesignIterator{Workload: func(*System) error { return nil }}
	if _, _, err := it.Run(); err == nil {
		t.Error("empty candidate list accepted")
	}
}

func TestDesignIteratorAllInfeasible(t *testing.T) {
	cfg := arch.DefaultConfig()
	it := &DesignIterator{
		Candidates: []arch.Config{cfg},
		Workload:   func(*System) error { return errors.New("always fails") },
	}
	if _, _, err := it.Run(); !errors.Is(err, ErrNoViableConfig) {
		t.Errorf("want ErrNoViableConfig, got %v", err)
	}
}

func TestEndToEndAllFourLayers(t *testing.T) {
	// Integration: an AUVM command drives NAVM tasks, which send SPVM
	// messages, which the ARCH simulation costs — counters must appear
	// at every level.
	cfg := arch.DefaultConfig()
	cfg.Clusters = 2
	cfg.PEsPerCluster = 4
	sys, err := Open(Options{Arch: cfg})
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Session("eng")
	for _, c := range []string{
		"generate grid plate 6 4 6 4 clamp-left",
		"load plate tip endload 0 -1000",
		"solve plate tip parallel 4",
		"stresses plate",
	} {
		if _, err := s.Execute(c); err != nil {
			t.Fatalf("%q: %v", c, err)
		}
	}
	if got := sys.Obs.Counter(obs.AUVMOps).Load(); got != 4 {
		t.Errorf("AUVM ops = %d", got)
	}
	if sys.Obs.Counter(obs.NAVMFlops).Load() == 0 {
		t.Error("no NAVM flops")
	}
	if sys.Obs.Counter(obs.ARCHCycles).Load() == 0 {
		t.Error("no ARCH cycles")
	}
	if sys.Machine.Makespan() == 0 {
		t.Error("no simulated time")
	}
	// The solution is physically sensible: the plate tip moved down.
	sol := s.WS.Solution("plate")
	if sol == nil {
		t.Fatal("no solution")
	}
	tip := sol.U[fem.DOF(fem.GridNodeID(4, 6, 2), 1)]
	if tip >= 0 {
		t.Errorf("plate tip moved up: %g", tip)
	}
}
