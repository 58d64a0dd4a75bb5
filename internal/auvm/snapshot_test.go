package auvm

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fem"
	"repro/internal/linalg"
)

// legacySnapshot is the FEM2SNAP1 writer doSnapshot used before
// FEM2SNAP2, kept as the oracle that writes the files the legacy reader
// serves.
func legacySnapshot(t testing.TB, mat fem.Material, saved []savedEntry) []byte {
	t.Helper()
	dto := snapshotDTO{Material: mat, Grids: map[string]fem.RectGridOpts{}}
	for _, e := range saved {
		if e.grid != nil {
			dto.Grids[e.model.Name] = *e.grid
		}
		enc, err := encodeModel(e.model, e.loads)
		if err != nil {
			t.Fatal(err)
		}
		ms := modelSnapshotDTO{Model: *enc, Stresses: e.stresses}
		if sol := e.sol; sol != nil {
			ms.Solution = &solutionDTO{
				U: sol.U, Backend: sol.Backend,
				Precond: sol.Precond, Iterations: sol.Iterations,
				Residual: sol.Residual, Refactored: sol.Refactored,
			}
		}
		dto.Models = append(dto.Models, ms)
	}
	var buf bytes.Buffer
	buf.WriteString(legacySnapshotMagic)
	if err := gob.NewEncoder(&buf).Encode(&dto); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotBytes snapshots s and returns the file.
func snapshotBytes(t testing.TB, s *Session) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ws.snap")
	if _, err := s.Execute("snapshot " + path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// restoreBytes writes raw to a file and restores it into s.
func restoreBytes(t testing.TB, s *Session, raw []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := s.Execute("restore " + path)
	return err
}

// modelLoads returns a workspace model's load sets in name order.
func modelLoads(s *Session, name string) []*fem.LoadSet {
	var out []*fem.LoadSet
	for _, n := range s.WS.LoadSetNames(name) {
		out = append(out, s.WS.LoadSet(name, n))
	}
	return out
}

// TestSnapshotKeepsNegativeZero: every float a snapshot carries comes
// back with its sign.  FEM2SNAP1 gave +0 back for the -0 of a node, a
// load, the session material and a grid's material, which gob leaves out
// of the stream as a zero struct field.
func TestSnapshotKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := newSession(t)
	mustExec(t, a, "material 200000 -0 10 2000")
	mustExec(t, a, "define structure z")
	mustExec(t, a, "node z -0 0")
	mustExec(t, a, "node z 100 -0")
	mustExec(t, a, "node z 50 80")
	mustExec(t, a, "element cst z 0 1 2")
	mustExec(t, a, "fix node z 0")
	mustExec(t, a, "load z l 2 -0")
	mustExec(t, a, "generate grid g 2 2 2 2 clamp-left")
	mustExec(t, a, "load g l endload -0 -100")
	a.WS.PutSolution("z", &fem.Solution{U: linalg.Vector{negZero, 0, negZero, 1, negZero, -1}, Residual: negZero})
	a.WS.PutStresses("z", [][]float64{{negZero, 1, negZero}})

	b := newSession(t)
	if err := restoreBytes(t, b, snapshotBytes(t, a)); err != nil {
		t.Fatal(err)
	}
	if got, want := b.material(), a.material(); !floatEq(sameBits).material(got, want) {
		t.Errorf("session material %v, want %v", got, want)
	}
	for _, name := range []string{"g", "z"} {
		if d := diffModels(sameBits, b.WS.Model(name), modelLoads(b, name), a.WS.Model(name), modelLoads(a, name)); d != "" {
			t.Errorf("model %s: %s", name, d)
		}
	}
	if got, _ := b.WS.GridOpts("g"); !floatEq(sameBits).material(got.Mat, a.material()) {
		t.Errorf("grid material %v, want Nu -0", got.Mat)
	}
	got, want := b.WS.Solution("z"), a.WS.Solution("z")
	for d := range want.U {
		if !sameBits(got.U[d], want.U[d]) {
			t.Errorf("U[%d] = %v, want %v", d, got.U[d], want.U[d])
		}
	}
	if !sameBits(got.Residual, negZero) {
		t.Errorf("residual %v, want -0", got.Residual)
	}
	if st := b.WS.Stresses("z"); !sameBits(st[0][0], negZero) || !sameBits(st[0][2], negZero) {
		t.Errorf("stresses %v, want -0 kept", st)
	}
}

// TestSnapshotFormat1FixtureRestores restores testdata/snapshot_format1.snap,
// which the last FEM2SNAP1 writer wrote and which is never regenerated: two
// grid models (one jittered, one solved by cg), a solved truss with its
// stresses and a hand-built model.  The follow-up script's transcript is
// what that writer's commit printed after restoring the same file.
func TestSnapshotFormat1FixtureRestores(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "restore "+filepath.Join("testdata", "snapshot_format1.snap"))
	if !strings.Contains(out, "restored 4 models") {
		t.Errorf("restore rendering = %q", out)
	}
	script, err := os.ReadFile(filepath.Join("testdata", "snapshot_format1.fem2"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "snapshot_format1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := s.Run(bytes.NewReader(script), &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("restored fixture renders\n%s\nwant\n%s", got.String(), want)
	}
}

// TestSnapshotFormatsRestoreAlike: one workspace written in both formats
// restores to the same renderings.
func TestSnapshotFormatsRestoreAlike(t *testing.T) {
	a := newSession(t)
	snapshotScript(t, a)
	want := renderState(t, a)
	for name, raw := range map[string][]byte{
		"FEM2SNAP1": legacySnapshot(t, a.material(), a.WS.save()),
		"FEM2SNAP2": snapshotBytes(t, a),
	} {
		b := newSession(t)
		if err := restoreBytes(t, b, raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := renderState(t, b); got != want {
			t.Errorf("%s restored\n got: %q\nwant: %q", name, got, want)
		}
	}
}

// TestSnapshotKeepsResultsAModelHasOutgrown: a node or an element added
// after a solve leaves the solution and stresses as they were, and both
// formats restore that workspace to the same renderings.
func TestSnapshotKeepsResultsAModelHasOutgrown(t *testing.T) {
	a := newSession(t)
	for _, line := range []string{
		"generate grid g 2 2 2 2 clamp-left", "load g l endload 0 -100", "solve g l", "stresses g",
		"node g 5 5", "element cst g 2 5 9",
		"generate truss t 1 100 80", "load t l 3 -100", "solve t l", "stresses t",
		"element bar t 0 3",
	} {
		mustExec(t, a, line)
	}
	render := func(s *Session) string {
		return mustExec(t, s, "display model g") + mustExec(t, s, "display displacements g") +
			mustExec(t, s, "display stresses g") + mustExec(t, s, "display model t") +
			mustExec(t, s, "display displacements t") + mustExec(t, s, "display stresses t") +
			mustExec(t, s, "list workspace")
	}
	want := render(a)
	for name, raw := range map[string][]byte{
		"FEM2SNAP1": legacySnapshot(t, a.material(), a.WS.save()),
		"FEM2SNAP2": snapshotBytes(t, a),
	} {
		b := newSession(t)
		if err := restoreBytes(t, b, raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := render(b); got != want {
			t.Errorf("%s restored\n got: %q\nwant: %q", name, got, want)
		}
	}
}

// TestRestoreRefusesStressRowsNoRecoveryWrites: a stress row neither 1 nor
// 3 values wide, or a CST's row of one value, is refused in either format
// before anything is replaced.  fem.VonMises reads a 2-value row out of
// range, so display stresses used to panic on such a file.
func TestRestoreRefusesStressRowsNoRecoveryWrites(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "generate grid a 2 2 2 2 clamp-left")
	mustExec(t, s, "load a l endload 0 -100")
	mustExec(t, s, "solve a l")
	mustExec(t, s, "stresses a")
	mustExec(t, s, "generate truss t 1 100 80")
	mustExec(t, s, "load t l 3 -100")
	mustExec(t, s, "solve t l")
	mustExec(t, s, "stresses t")
	render := func() string {
		return mustExec(t, s, "display displacements a") + mustExec(t, s, "display stresses a") +
			mustExec(t, s, "display stresses t") + mustExec(t, s, "list workspace")
	}
	before := render()

	for _, tc := range []struct {
		name, want string
		spoil      func(a, t *savedEntry)
	}{
		{"2-value CST row", `model "a": stress row 5 has 2 values`,
			func(a, _ *savedEntry) { a.stresses[5] = a.stresses[5][:2] }},
		{"1-value CST row", `model "a": stress row 5 has 1 values`,
			func(a, _ *savedEntry) { a.stresses[5] = a.stresses[5][:1] }},
		{"empty bar row", `model "t": stress row 0 has 0 values`,
			func(_, t *savedEntry) { t.stresses[0] = t.stresses[0][:0] }},
		{"2-value row past the elements", `model "t": stress row 5 has 2 values`,
			func(_, t *savedEntry) { t.stresses = append(t.stresses, []float64{1, 2}) }},
	} {
		saved := s.WS.save()
		tc.spoil(&saved[0], &saved[1])
		snap2, err := encodeSnapshot(s.material(), saved)
		if err != nil {
			t.Fatal(err)
		}
		for format, raw := range map[string][]byte{"FEM2SNAP1": legacySnapshot(t, s.material(), saved), "FEM2SNAP2": snap2} {
			err := restoreBytes(t, s, raw)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: restore = %v, want %q", tc.name, format, err, tc.want)
			}
			if after := render(); after != before {
				t.Fatalf("%s, %s: a refused restore changed the workspace:\n got: %q\nwant: %q", tc.name, format, after, before)
			}
		}
	}
}

// TestSnapshotLayout spells one small snapshot out byte by byte, the
// layout table of docs/storage.md as a test.
func TestSnapshotLayout(t *testing.T) {
	f := func(vs ...float64) string {
		var b []byte
		for _, v := range vs {
			b = appendFloat(b, v)
		}
		return string(b)
	}
	mat := fem.Material{E: 1, Nu: 0.25, T: 2, A: 4}
	m := fem.NewModel("m")
	m.AddNode(0, 0)
	m.AddNode(1, 0)
	if err := m.AddElement(&fem.Bar{N1: 0, N2: 1, Mat: mat}); err != nil {
		t.Fatal(err)
	}
	rec, err := encodeModelRecord(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	saved := []savedEntry{{
		model:    m,
		grid:     &fem.RectGridOpts{NX: 2, NY: 1, W: 3, H: 0.5, Mat: mat, ClampLeft: true, Seed: -1},
		sol:      &fem.Solution{U: linalg.Vector{0, 0, 0.1, -1}, Backend: "c", Iterations: 3, Residual: 1e-9, Refactored: true},
		stresses: [][]float64{{7}},
	}}
	want := "FEM2SNAP2\n" + f(8, 0.5, 1, 2) + // session material
		"\x01" + // one entry
		string(binary.AppendUvarint(nil, uint64(len(rec)))) + string(rec) + // the model record, its length first
		"\x01" + "\x04\x02" + f(3, 0.5) + f(1, 0.25, 2, 4) + "\x01" + f(0) + "\x01" + // grid: NX 2, NY 1 zigzag, ..., seed -1 zigzag
		"\x01" + "\x04" + f(0, 0, 0.1, -1) + "\x01c" + "\x00" + "\x06" + f(1e-9) + "\x01" + // solution: U, "c", "", 3 zigzag, residual, refactored
		"\x01" + "\x01" + "\x01" + f(7) // stresses: one row of one value
	got, err := encodeSnapshot(fem.Material{E: 8, Nu: 0.5, T: 1, A: 2}, saved)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("snapshot\n got %q\nwant %q", got, want)
	}
	gotMat, back, err := decodeSnapshot(got[len(snapshotMagic):])
	if err != nil {
		t.Fatal(err)
	}
	if again, err := encodeSnapshot(gotMat, back); err != nil || !bytes.Equal(again, got) {
		t.Errorf("encode(decode(snapshot)) = %q, %v", again, err)
	}
}

// TestSnapshotRefusesDamage cuts a snapshot at every offset, pads it,
// flips its presence bytes, plants a count no file of its size holds and
// writes two lists save cannot return.
func TestSnapshotRefusesDamage(t *testing.T) {
	a := newSession(t)
	snapshotScript(t, a)
	raw := snapshotBytes(t, a)
	for cut := len(snapshotMagic); cut < len(raw); cut++ {
		if _, _, err := readSnapshot("cut", raw[:cut]); err == nil {
			t.Errorf("snapshot cut to %d of %d bytes decoded", cut, len(raw))
		}
	}
	if _, _, err := readSnapshot("padded", append(slices.Clip(raw), 0)); err == nil {
		t.Error("snapshot with a trailing byte decoded")
	}
	huge := append([]byte(snapshotMagic), make([]byte, 32)...)
	huge = append(binary.AppendUvarint(huge, 1<<60), make([]byte, 64)...)
	if _, _, err := readSnapshot("huge", huge); err == nil {
		t.Error("2^60 entries decoded")
	}
	// Entries out of name order, and a load set twice, are lists save
	// cannot return.
	swapped := a.WS.save()
	slices.Reverse(swapped)
	twice := a.WS.save()
	twice[0].loads = append(twice[0].loads, twice[0].loads[0])
	for name, saved := range map[string][]savedEntry{"swapped": swapped, "load set twice": twice} {
		raw, err := encodeSnapshot(a.material(), saved)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := readSnapshot(name, raw); !errors.Is(err, errCorruptSnapshot) {
			t.Errorf("%s: %v, want %v", name, err, errCorruptSnapshot)
		}
	}
	// The plate's entry follows the 32-byte material, the entry count
	// and the record's length; its grid presence byte follows the record.
	body := raw[len(snapshotMagic)+32+1:]
	n, k := binary.Uvarint(body)
	at := len(snapshotMagic) + 32 + 1 + k + int(n)
	if raw[at] != 1 {
		t.Fatalf("plate's grid presence byte is %d, want 1", raw[at])
	}
	for _, v := range []byte{0, 2} {
		spoilt := slices.Clone(raw)
		spoilt[at] = v
		if _, _, err := readSnapshot("spoilt", spoilt); err == nil {
			t.Errorf("grid presence byte %d decoded", v)
		}
	}
}

// FuzzSnapshot feeds restore arbitrary files: neither reader may panic,
// the FEM2SNAP2 reader may not allocate out of proportion to its input,
// and a file it accepts, restored into a fresh session and snapshotted
// again, must come back byte for byte.
func FuzzSnapshot(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "snapshot_format1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(snapshotBytes(f, NewSession("alice", NewDatabase())))
	full := NewSession("alice", NewDatabase())
	if err := restoreBytes(f, full, fixture); err != nil {
		f.Fatal(err)
	}
	f.Add(snapshotBytes(f, full))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if !bytes.HasPrefix(raw, []byte(snapshotMagic)) {
			readSnapshot("fuzz", raw) // the gob reader: must not panic, nothing more is promised
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := readSnapshot("fuzz", raw)
		runtime.ReadMemStats(&after)
		// The model record's own bound, and the slack covers the runtime's
		// own goroutines.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+(1<<16)); got > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(raw), got, limit)
		}
		if err != nil {
			return
		}
		s := newSession(t)
		if err := restoreBytes(t, s, raw); err != nil {
			t.Fatalf("restore of an accepted file: %v", err)
		}
		if again := snapshotBytes(t, s); !bytes.Equal(again, raw) {
			t.Fatalf("snapshot of the restored workspace differs: %d vs %d bytes\n got %q\nwant %q", len(again), len(raw), again, raw)
		}
	})
}

// BenchmarkSnapshotRoundTrip snapshots the benchmark's 40×24 plate, solved
// and with its stresses, and restores it.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	a := NewSession("alice", NewDatabase())
	for _, line := range []string{"generate grid l 40 24 40 24 clamp-left", "load l tip endload 0 -100", "solve l tip", "stresses l"} {
		if _, err := a.Execute(line); err != nil {
			b.Fatal(err)
		}
	}
	path := filepath.Join(b.TempDir(), "ws.snap")
	dst := NewSession("bob", NewDatabase())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ExecuteContext(ctx, "snapshot "+path); err != nil {
			b.Fatal(err)
		}
		if _, err := dst.ExecuteContext(ctx, "restore "+path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fi, err := os.Stat(path); err == nil {
		b.ReportMetric(float64(fi.Size()), "file-B")
	}
}
