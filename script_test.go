package fem2_test

import (
	"context"
	"flag"
	"os"
	"strings"
	"testing"

	fem2 "repro"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/demo.golden")

// demoGolden is what "fem2 -report -script testdata/demo.fem2" prints:
// the transcript, the machine report and the per-level counter table.
const demoGolden = "testdata/demo.golden"

// TestScriptedWorkstation drives the full stack with the same script file
// cmd/fem2 -script consumes, and checks the run end to end: no errors,
// both models stored, every VM level exercised, and the whole rendering
// byte-identical to demoGolden.
func TestScriptedWorkstation(t *testing.T) {
	f, err := os.Open("testdata/demo.fem2")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Session("scripted")
	var out strings.Builder
	if err := s.Run(f, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if strings.Contains(text, "error:") {
		t.Fatalf("script produced errors:\n%s", text)
	}
	for _, want := range []string{
		"generated grid \"spar\"", "solved \"spar\"", "parallel on 4 workers",
		"generated truss \"jib\"", "max von Mises", "bye",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("script output missing %q", want)
		}
	}
	if got, _, _ := sys.Database.List(); len(got) != 2 || got[0] != "jib" || got[1] != "spar" {
		t.Errorf("database = %v", got)
	}
	// Every level saw activity.
	snap := sys.StatsSnapshot()
	for _, l := range []fem2.Level{fem2.LevelAUVM, fem2.LevelNAVM, fem2.LevelSPVM, fem2.LevelARCH} {
		active := false
		for _, ctr := range []string{"ops", "flops", "cycles", "msgs"} {
			if snap.Counter(strings.ToLower(l.String())+"."+ctr) > 0 {
				active = true
			}
		}
		if !active {
			t.Errorf("level %v recorded no activity", l)
		}
	}
	got := text + sys.Machine.Report() + fem2.LevelReport(snap)
	if *update {
		if err := os.WriteFile(demoGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(demoGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("rendering drifted from %s (run with -update after checking):\n%s", demoGolden, got)
	}
}

// TestParallelSolveCommunicationPattern checks that the network of a
// real parallel solve records the neighbour-banded cluster communication
// pattern E14 tabulates: traffic between distinct clusters, and exactly
// the reply's halo words on the wire, agreeing with arch.msg_words.
func TestParallelSolveCommunicationPattern(t *testing.T) {
	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session("eng")
	for _, c := range []string{
		"generate grid g 12 8 12 8 clamp-left",
		"load g l endload 0 -100",
	} {
		if _, err := s.Execute(c); err != nil {
			t.Fatalf("%q: %v", c, err)
		}
	}
	res, err := s.Do(context.Background(), fem2.SolveCommand{Model: "g", Set: "l", Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	sr := res.(*fem2.SolveResult)
	nw := sys.Machine.Network()
	active := map[int]bool{}
	var offDiag int64
	for i, row := range nw.TrafficMatrix() {
		for j, n := range row {
			if n > 0 {
				active[i], active[j] = true, true
				if i != j {
					offDiag += n
				}
			}
		}
	}
	if len(active) < 2 || offDiag == 0 {
		t.Errorf("network saw traffic between %d clusters, %d off-diagonal messages", len(active), offDiag)
	}
	words, counted := nw.TotalWords(), sys.Obs.Counter(obs.ARCHMsgWords).Load()
	if words != counted || words != sr.HaloWords || words == 0 {
		t.Errorf("network words %d, arch.msg_words %d, reply halo words %d: want all equal and non-zero",
			words, counted, sr.HaloWords)
	}
}

// TestNonFiniteNumbersRefusedLocallyAndOverWire replays one line per
// numeric argument of the language with NaN or an infinity in it, locally
// and through a client against a real listener, and requires identical
// transcripts of usage errors.  Parse used to take them as numbers, so
// locally "material NaN 0.3 10 2000" answered "material E=NaN …" while over
// the wire — JSON has no NaN — the same line answered "error: json:
// unsupported value: NaN".
func TestNonFiniteNumbersRefusedLocallyAndOverWire(t *testing.T) {
	lines := []string{
		"material NaN 0.3 10 2000",
		"material 200000 nan 10 2000",
		"material 200000 0.3 Inf 2000",
		"material 200000 0.3 10 -inf",
		"material 1e999 0.3 10 2000",
		"node g nan 1",
		"node g 1 inf",
		"generate grid p 2 2 +Inf 2",
		"generate grid p 2 2 2 infinity",
		"generate grid p 2 2 2 2 jitter NaN 1",
		"generate truss t 2 -Inf 1",
		"generate truss t 2 1 nan",
		"generate bar b 2 Infinity",
		"load g l endload NaN 0",
		"load g l endload 0 inf",
		"load g l 1 nan",
		"submit node g nan 1",
	}
	script := "define structure g\n" + strings.Join(lines, "\n") + "\nmaterial 200000 0.3 10 2000\nnode g 1 2\nquit\n"

	localSys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	defer localSys.Close()
	var local strings.Builder
	if err := localSys.Session("eng").Run(strings.NewReader(script), &local); err != nil {
		t.Fatal(err)
	}

	_, srv, addr, _ := startServer(t, fem2.ServerConfig{})
	defer srv.Shutdown(context.Background())
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var remote strings.Builder
	if err := cl.Run(context.Background(), strings.NewReader(script), &remote, false); err != nil {
		t.Fatal(err)
	}

	if local.String() != remote.String() {
		t.Errorf("network transcript diverged from local:\n--- local ---\n%s--- remote ---\n%s", local.String(), remote.String())
	}
	got := strings.Split(strings.TrimSuffix(local.String(), "\n"), "\n")
	if len(got) != len(lines)+4 {
		t.Fatalf("%d transcript lines for %d script lines:\n%s", len(got), len(lines)+4, local.String())
	}
	for i, line := range lines {
		if out := got[i+1]; !strings.HasPrefix(out, "error: usage: ") {
			t.Errorf("%q answered %q, want a usage error", line, out)
		}
	}
	if tail := got[len(lines)+1:]; tail[0] != "material E=200000 nu=0.3 t=10 A=2000" || tail[1] != "node 0 at (1, 2)" || tail[2] != "bye" {
		t.Errorf("finite numbers after the refusals answered %q", tail)
	}
}
