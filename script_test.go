package fem2_test

import (
	"os"
	"strings"
	"testing"

	fem2 "repro"
	"repro/internal/metrics"
)

// TestScriptedWorkstation drives the full stack with the same script file
// cmd/fem2 -script consumes, and checks the run end to end: no errors,
// both models stored, every VM level exercised.
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
	if got := sys.Database.Names(); len(got) != 2 || got[0] != "jib" || got[1] != "spar" {
		t.Errorf("database = %v", got)
	}
	// Every level saw activity.
	for _, l := range []fem2.Level{fem2.LevelAUVM, fem2.LevelNAVM, fem2.LevelSPVM, fem2.LevelARCH} {
		active := false
		for _, ctr := range []string{metrics.CtrOps, metrics.CtrFlops, metrics.CtrCycles, metrics.CtrMsgs} {
			if sys.Metrics.Get(l, ctr) > 0 {
				active = true
			}
		}
		if !active {
			t.Errorf("level %v recorded no activity", l)
		}
	}
}

// TestTraceCommunicationPattern checks that the event trace of a real
// parallel solve reconstructs the neighbour-banded cluster communication
// pattern — the trace-level view of E14.
func TestTraceCommunicationPattern(t *testing.T) {
	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Session("eng")
	for _, c := range []string{
		"generate grid g 12 8 12 8 clamp-left",
		"load g l endload 0 -100",
		"solve g l parallel 4",
	} {
		if _, err := s.Execute(c); err != nil {
			t.Fatalf("%q: %v", c, err)
		}
	}
	ids, m := sys.Trace.CommunicationMatrix("fetch")
	if len(ids) < 2 {
		t.Fatalf("trace saw fetch traffic between %d clusters", len(ids))
	}
	var total, offDiag int
	for i := range m {
		for j := range m[i] {
			total += m[i][j]
			if i != j {
				offDiag += m[i][j]
			}
		}
	}
	if total == 0 || offDiag == 0 {
		t.Errorf("communication matrix empty: total=%d offdiag=%d", total, offDiag)
	}
	// The trace summary mentions the fetch events.
	if sum := sys.Trace.Summary(); !strings.Contains(sum, "fetch") {
		t.Errorf("trace summary missing fetch kind:\n%s", sum)
	}
}
