package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/command"
)

// fem2dBin is the daemon TestMain builds for the smoke test.
var fem2dBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fem2bench-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fem2dBin = filepath.Join(dir, "fem2d")
	if out, err := exec.Command("go", "build", "-o", fem2dBin, "repro/cmd/fem2d").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building fem2d: %v\n%s", err, out)
		os.Exit(1)
	}
	calibPasses = 1 // the smoke test checks plumbing, not speed
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeConfig is a run at 1/200 of every fixed count.
func smokeConfig(t *testing.T, w *workload, trace bool) *config {
	return &config{w: w, seed: 42, seconds: 2, trace: trace, fem2d: fem2dBin, out: t.TempDir(), scale: 1.0 / 200}
}

// checkNames fails unless the run emitted exactly the listed metrics,
// each with the listed unit.
func checkNames(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s of BENCHMARK.json not emitted", m.Name)
		} else if got.Unit != m.Unit || got.Unit == "" {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		for name := range res.Metrics {
			found := false
			for _, m := range want {
				found = found || m.Name == name
			}
			if !found {
				t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
			}
		}
	}
}

func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	ctx := context.Background()
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program, or their reasons differ", i, sp.Workloads[i].Name, w.name)
		}
		res, err := run(ctx, smokeConfig(t, w, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		checkNames(t, res, sp.EndToEnd)
	}

	// One traced run with the layer probes, on the workload with two
	// connections, pipelined jobs and requests outside jobs.
	cfg := smokeConfig(t, findWorkload("tenants_mixed"), true)
	res, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced run: %d of %d operations failed", res.Failed, res.Attempted)
	}
	checkNames(t, res, sp.PerLayer)

	data, err := os.ReadFile(filepath.Join(cfg.out, "tenants_mixed.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	for _, s := range doc.Spans {
		if ids[s.ID] {
			t.Errorf("span id %d used twice", s.ID)
		}
		ids[s.ID] = true
	}
	for _, s := range doc.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if (s.Parent == 0) != (s.Name == "unit") || s.End < s.Start {
			t.Errorf("malformed span %+v", s)
		}
	}
	if len(doc.Spans) == 0 {
		t.Error("traced run wrote no spans")
	}
}

// stream is the generated command stream of a workload's set-up and
// first units, as the bytes that would cross the wire.
func stream(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	g := newGenerator(w, seed)
	var buf bytes.Buffer
	for conn := 0; conn < w.conns; conn++ {
		steps := w.build(g, conn)
		for i := 0; i < 20; i++ {
			steps = append(steps, w.unit(g, conn, i)...)
		}
		for _, s := range steps {
			data, err := command.MarshalCommand(s.cmd)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(data)
		}
	}
	return buf.Bytes()
}

func TestSeedFixesTheCommandStream(t *testing.T) {
	for _, w := range workloads {
		a, b, c := stream(t, w, 7), stream(t, w, 7), stream(t, w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different command streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same command stream", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
