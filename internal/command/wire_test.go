package command

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/errs"
)

// wireCommandSamples is one populated sample per command verb — every
// field non-zero so the round trip exercises full encode/decode.
var wireCommandSamples = []Command{
	Help{},
	Ping{},
	Version{},
	Quit{},
	Define{Name: "wing"},
	SetMaterial{E: 200000, Nu: 0.3, T: 10, A: 2000},
	GenerateGrid{Name: "g", NX: 4, NY: 3, W: 4.5, H: 3.5, ClampLeft: true, Jitter: 0.1, Seed: 7},
	GenerateTruss{Name: "tr", Bays: 4, BayLen: 100, Height: 80},
	GenerateBar{Name: "b", Segments: 10, Length: 100},
	AddNode{Model: "m", X: 1, Y: 2.5},
	AddBar{Model: "m", N1: 0, N2: 1},
	AddCST{Model: "m", N1: 0, N2: 1, N3: 2},
	FixNode{Model: "m", Node: 3},
	FixDOF{Model: "m", DOF: 5},
	DefineLoadSet{Model: "m", Set: "ls"},
	AddLoad{Model: "m", Set: "ls", DOF: 3, Value: -50.5},
	EndLoad{Model: "m", Set: "ls", FX: 10, FY: -1000},
	Solve{Model: "m", Set: "ls", Method: MethodCG, Precond: Precond("jacobi")},
	Solve{Model: "m", Set: "ls", Substructures: 4},
	Stresses{Model: "m"},
	Display{What: DisplayDisplacements, Model: "m"},
	Store{Model: "m"},
	Retrieve{Name: "m"},
	Delete{Name: "m"},
	List{What: ListWorkspace},
	Snapshot{Path: "ws.snap"},
	Restore{Path: "ws.snap"},
	Submit{Cmd: Solve{Model: "m", Set: "ls", Parallel: 8}},
	Status{ID: 7},
	Wait{ID: 7},
	Cancel{ID: 7},
	Jobs{Owner: "engineer", State: JobRunning},
	Stats{},
}

// wireResultSamples is one populated sample per result kind.
var wireResultSamples = []Result{
	&HelpResult{},
	&PingResult{},
	&VersionResult{Server: "fem2", Release: Release, Protocol: ProtocolVersion},
	&QuitResult{},
	&DefineResult{Name: "wing"},
	&MaterialResult{E: 200000, Nu: 0.3, T: 10, A: 2000},
	&GenerateResult{Kind: "grid", Name: "g", Nodes: 20, Elements: 24},
	&NodeResult{ID: 3, X: 1, Y: 2.5},
	&ElementResult{Kind: "cst", Model: "m", Nodes: []int{0, 1, 2}},
	&FixResult{What: "node", Index: 3},
	&LoadSetResult{Model: "m", Set: "ls"},
	&LoadResult{DOF: 3, Value: -50.5, Entries: 2},
	&EndLoadResult{Set: "ls", Entries: 5},
	&SolveResult{Model: "m", Set: "ls", Backend: "cg", Precond: "jacobi",
		Iterations: 42, Residual: 1e-9, Flops: 12345, Refactored: true,
		MaxDisp: 0.125, MaxDOF: 17},
	&StressesResult{Model: "m", Elements: 24, MaxVonMises: 99.5, MaxElem: 7},
	&ModelInfoResult{Name: "m", Nodes: 20, DOFs: 40, Fixed: 8,
		ElementCounts: map[string]int{"cst": 24}},
	&DisplacementsResult{Model: "m", MaxDisp: 0.125, MaxDOF: 17, Norm: 0.125},
	&StressSummaryResult{Model: "m", Elements: 24, MaxVonMises: 99.5, MaxElem: 7},
	&StoreResult{Name: "m", LoadSets: 2},
	&RetrieveResult{Name: "m", LoadSets: 2},
	&DeleteResult{Name: "m"},
	&ListResult{What: ListDB, Names: []string{"a", "b"}, Bytes: 512},
	&SnapshotResult{Path: "ws.snap", Models: 2, Bytes: 4096},
	&RestoreResult{Path: "ws.snap", Models: 2},
	&SubmitResult{ID: 7, State: JobQueued, Cmd: "solve m ls"},
	&JobStatusResult{ID: 7, Owner: "engineer", State: JobFailed,
		Cmd: "solve m ls", Error: "boom", Ops: 1, Flops: 2, Cycles: 3},
	&JobsResult{Rows: []JobRow{{ID: 7, Owner: "engineer", State: JobDone, Cmd: "solve m ls"}}},
	&CancelResult{ID: 7, State: JobCancelled},
	&StatsResult{
		UptimeSeconds: 12,
		Counters:      []StatEntry{{Name: "job.done", Value: 42}, {Name: "job.submitted", Value: 43}},
		Gauges:        []StatEntry{{Name: "job.queue_depth", Value: 2}},
		Histograms: []StatHistogram{{
			Name: "job.latency.solve", Count: 3, SumNS: 150000,
			Buckets: []StatBucket{{Pow: 15, Count: 1}, {Pow: 16, Count: 2}},
		}},
	},
}

// TestWireCommandRoundTrip encodes and decodes every command sample and
// requires the identical struct back.
func TestWireCommandRoundTrip(t *testing.T) {
	for _, cmd := range wireCommandSamples {
		data, err := MarshalCommand(cmd)
		if err != nil {
			t.Fatalf("marshal %s: %v", cmd, err)
		}
		got, err := UnmarshalCommand(data)
		if err != nil {
			t.Fatalf("unmarshal %s (%s): %v", cmd, data, err)
		}
		if !reflect.DeepEqual(got, cmd) {
			t.Errorf("round trip %s: got %#v, want %#v", cmd, got, cmd)
		}
	}
}

// TestWireCommandCoversEveryVerb pins the codec registry to the AST: a
// new verb must appear in the wire tables (and in the samples above).
func TestWireCommandCoversEveryVerb(t *testing.T) {
	seen := map[reflect.Type]bool{}
	for _, cmd := range wireCommandSamples {
		seen[reflect.TypeOf(cmd)] = true
	}
	for verb, row := range cmdByVerb {
		if !seen[row.typ] {
			t.Errorf("verb %q (%v) has no round-trip sample", verb, row.typ)
		}
	}
}

// TestWireResultRoundTrip encodes and decodes every result sample and
// requires the identical struct — and therefore the byte-identical
// String rendering — back.
func TestWireResultRoundTrip(t *testing.T) {
	seen := map[reflect.Type]bool{}
	for _, res := range wireResultSamples {
		seen[reflect.TypeOf(res).Elem()] = true
		data, err := MarshalResult(res)
		if err != nil {
			t.Fatalf("marshal %T: %v", res, err)
		}
		got, err := UnmarshalResult(data)
		if err != nil {
			t.Fatalf("unmarshal %T (%s): %v", res, data, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("round trip %T: got %#v, want %#v", res, got, res)
		}
		if got.String() != res.String() {
			t.Errorf("rendering diverged: %q vs %q", got.String(), res.String())
		}
	}
	for kind, typ := range resultKinds {
		if !seen[typ] {
			t.Errorf("result kind %q (%v) has no round-trip sample", kind, typ)
		}
	}
}

// TestWireCommandErrors pins the codec's failure modes to the usage
// taxonomy.
func TestWireCommandErrors(t *testing.T) {
	cases := []string{
		`{"verb":"warp"}`,                         // unknown verb
		`{"verb":"solve","body":{"Nope":1}}`,      // unknown field
		`{"verb":"submit","cmd":{"verb":"quit"}}`, // unsubmittable nested verb
		`{"verb":"submit","cmd":{"verb":"wait","body":{"ID":1}}}`,
		`not json`,
	}
	for _, data := range cases {
		if _, err := UnmarshalCommand([]byte(data)); !errors.Is(err, errs.ErrUsage) {
			t.Errorf("UnmarshalCommand(%s) = %v, want ErrUsage", data, err)
		}
	}
	if _, err := UnmarshalResult([]byte(`{"kind":"warp"}`)); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("UnmarshalResult unknown kind = %v, want ErrUsage", err)
	}
	if _, err := MarshalCommand(nil); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("MarshalCommand(nil) = %v, want ErrUsage", err)
	}
}
