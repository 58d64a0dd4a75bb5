package auvm

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/command"
	"repro/internal/fem"
	"repro/internal/hgraph"
	"repro/internal/store"
)

// gobModel is the writer Store used for "m:<name>" until format 2, moved
// here verbatim as the oracle: the record reader must rebuild from a
// record exactly the model the gob reader rebuilds from these bytes.
func gobModel(dto *modelDTO) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, fmt.Errorf("auvm: encode model %q: %w", dto.Name, err)
	}
	return buf.Bytes(), nil
}

// encodeModel flattens a model (plus its load sets) into the DTO: the
// writer of format-1 stores and FEM2SNAP1 snapshots, moved here verbatim
// as gobModel's front half.
func encodeModel(m *fem.Model, loads []*fem.LoadSet) (*modelDTO, error) {
	dto := &modelDTO{Name: m.Name, Nodes: append([]fem.NodeCoord(nil), m.Nodes...)}
	for _, e := range m.Elements {
		switch el := e.(type) {
		case *fem.Bar:
			dto.Bars = append(dto.Bars, barDTO{N1: el.N1, N2: el.N2, Mat: el.Mat})
			dto.Order = append(dto.Order, elemBar)
		case *fem.CST:
			dto.CSTs = append(dto.CSTs, cstDTO{N1: el.N1, N2: el.N2, N3: el.N3, Mat: el.Mat})
			dto.Order = append(dto.Order, elemCST)
		default:
			return nil, fmt.Errorf("auvm: cannot serialize element kind %q", e.Kind())
		}
	}
	for d := 0; d < m.NumDOF(); d++ {
		if m.Fixed(d) {
			dto.Fixed = append(dto.Fixed, d)
		}
	}
	for _, ls := range loads {
		dto.LoadSets = append(dto.LoadSets, loadSetDTO{Name: ls.Name, Entries: append([]fem.LoadEntry(nil), ls.Entries...)})
	}
	return dto, nil
}

// oracleDecode is the format-1 path end to end: DTO, gob, DTO, model.
func oracleDecode(t testing.TB, m *fem.Model, loads []*fem.LoadSet) (*fem.Model, []*fem.LoadSet) {
	t.Helper()
	dto, err := encodeModel(m, loads)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := gobModel(dto)
	if err != nil {
		t.Fatal(err)
	}
	var back modelDTO
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&back); err != nil {
		t.Fatal(err)
	}
	om, ol, err := decodeModel(&back)
	if err != nil {
		t.Fatal(err)
	}
	return om, ol
}

// floatEq says when two floats count as the same value.
type floatEq func(a, b float64) bool

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameBitsOrZero is the most the gob oracle can be held to: gob leaves a
// zero-valued struct field out of the stream and -0 == 0, so a format-1
// store gave back +0 for a -0 coordinate, material property or load value.
// The record keeps the sign (checkRecordAgainstOracle compares it to the
// original by sameBits).
func sameBitsOrZero(a, b float64) bool { return sameBits(a, b) || (a == 0 && b == 0) }

func (eq floatEq) material(a, b fem.Material) bool {
	return eq(a.E, b.E) && eq(a.Nu, b.Nu) && eq(a.T, b.T) && eq(a.A, b.A)
}

// diffModels compares two models and their load sets field for field,
// floats by eq, elements by concrete type and order.  It returns ""
// when they are equal.
func diffModels(eq floatEq, a *fem.Model, al []*fem.LoadSet, b *fem.Model, bl []*fem.LoadSet) string {
	if a.Name != b.Name {
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	}
	if len(a.Nodes) != len(b.Nodes) || len(a.Elements) != len(b.Elements) || len(al) != len(bl) {
		return fmt.Sprintf("%d/%d nodes, %d/%d elements, %d/%d load sets",
			len(a.Nodes), len(b.Nodes), len(a.Elements), len(b.Elements), len(al), len(bl))
	}
	for i := range a.Nodes {
		if !eq(a.Nodes[i].X, b.Nodes[i].X) || !eq(a.Nodes[i].Y, b.Nodes[i].Y) {
			return fmt.Sprintf("node %d: %v vs %v", i, a.Nodes[i], b.Nodes[i])
		}
	}
	for i := range a.Elements {
		same := false
		switch ea := a.Elements[i].(type) {
		case *fem.Bar:
			eb, ok := b.Elements[i].(*fem.Bar)
			same = ok && ea.N1 == eb.N1 && ea.N2 == eb.N2 && eq.material(ea.Mat, eb.Mat)
		case *fem.CST:
			eb, ok := b.Elements[i].(*fem.CST)
			same = ok && ea.N1 == eb.N1 && ea.N2 == eb.N2 && ea.N3 == eb.N3 && eq.material(ea.Mat, eb.Mat)
		}
		if !same {
			return fmt.Sprintf("element %d: %#v vs %#v", i, a.Elements[i], b.Elements[i])
		}
	}
	if a.NumFixed() != b.NumFixed() {
		return fmt.Sprintf("%d vs %d fixed dofs", a.NumFixed(), b.NumFixed())
	}
	for d := 0; d < a.NumDOF(); d++ {
		if a.Fixed(d) != b.Fixed(d) {
			return fmt.Sprintf("dof %d fixed: %v vs %v", d, a.Fixed(d), b.Fixed(d))
		}
	}
	for i := range al {
		if al[i].Name != bl[i].Name || len(al[i].Entries) != len(bl[i].Entries) {
			return fmt.Sprintf("load set %d: %q/%d vs %q/%d", i, al[i].Name, len(al[i].Entries), bl[i].Name, len(bl[i].Entries))
		}
		for j, e := range al[i].Entries {
			if f := bl[i].Entries[j]; e.DOF != f.DOF || !eq(e.Value, f.Value) {
				return fmt.Sprintf("load set %d entry %d: %v vs %v", i, j, e, f)
			}
		}
	}
	return ""
}

// benchGrid is one of the benchmark's three plates (benchmark/workload.go)
// with the end load its workloads apply.
func benchGrid(t testing.TB, name string, nx, ny int) (*fem.Model, []*fem.LoadSet) {
	t.Helper()
	o := fem.RectGridOpts{NX: nx, NY: ny, W: float64(nx), H: float64(ny), Mat: fem.Steel(), ClampLeft: true}
	m, err := fem.RectGrid(name, o)
	if err != nil {
		t.Fatal(err)
	}
	return m, []*fem.LoadSet{fem.EndLoad("tip", o, 0, -100)}
}

var benchGrids = []struct {
	name   string
	nx, ny int
}{{"s", 8, 6}, {"t", 12, 8}, {"l", 40, 24}}

// oddFloats are the values a text codec would lose and a bit-pattern
// table must keep apart.
var oddFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000123),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300, -2.5}

// randomModel draws a model no generator verb would: bars and CSTs
// interleaved, a few materials reused in any order, odd floats anywhere
// a float goes, names of several bytes per rune.
func randomModel(rng *rand.Rand) (*fem.Model, []*fem.LoadSet) {
	float := func() float64 {
		if rng.Intn(4) == 0 {
			return oddFloats[rng.Intn(len(oddFloats))]
		}
		return rng.NormFloat64() * 1e3
	}
	names := []string{"", "m", "plate", "träger-7", "模型", "a:b:c", "\x00\xff"}
	m := fem.NewModel(names[rng.Intn(len(names))])
	if rng.Intn(10) == 0 {
		return m, nil // the empty model
	}
	for n := 1 + rng.Intn(40); n > 0; n-- {
		m.AddNode(float(), float())
	}
	mats := make([]fem.Material, 1+rng.Intn(5))
	for i := range mats {
		mats[i] = fem.Material{E: float(), Nu: float(), T: float(), A: float()}
	}
	if len(mats) > 1 && rng.Intn(2) == 0 {
		mats[1] = mats[0]
		mats[1].Nu = -mats[1].Nu // differs from mats[0] in one sign bit, even when Nu is 0
	}
	node := func() int { return rng.Intn(len(m.Nodes)) }
	for n := rng.Intn(80); n > 0; n-- {
		var e fem.Element
		if mat := mats[rng.Intn(len(mats))]; rng.Intn(2) == 0 {
			e = &fem.Bar{N1: node(), N2: node(), Mat: mat}
		} else {
			e = &fem.CST{N1: node(), N2: node(), N3: node(), Mat: mat}
		}
		if err := m.AddElement(e); err != nil {
			panic(err)
		}
	}
	for n := rng.Intn(m.NumDOF() + 1); n > 0; n-- {
		if err := m.FixDOF(rng.Intn(m.NumDOF())); err != nil {
			panic(err)
		}
	}
	var loads []*fem.LoadSet
	for n := rng.Intn(4); n > 0; n-- {
		ls := &fem.LoadSet{Name: names[rng.Intn(len(names))]}
		for k := rng.Intn(6); k > 0; k-- {
			// A load set is checked against the model at solve time, not
			// at store time: any dof round-trips, negative ones too.
			ls.Entries = append(ls.Entries, fem.LoadEntry{DOF: rng.Intn(4*m.NumDOF()+1) - m.NumDOF(), Value: float()})
		}
		loads = append(loads, ls)
	}
	return m, loads
}

var modelGrammar = hgraph.StructureModelGrammar()

// checkModelGrammar validates the graph of a stored model against the
// formal grammar of models.
func checkModelGrammar(t testing.TB, gr *hgraph.Graph) {
	t.Helper()
	if errs := modelGrammar.Validate(gr); len(errs) > 0 {
		t.Fatalf("stored model violates formal grammar: %v", errs)
	}
}

// checkRecordAgainstOracle is the differential's one step: the record
// decodes to the model it was written from and to what the gob oracle
// decodes to, re-encodes to itself, and is in the model grammar's
// language.
func checkRecordAgainstOracle(t *testing.T, m *fem.Model, loads []*fem.LoadSet) (*fem.Model, []*fem.LoadSet) {
	t.Helper()
	raw, err := encodeModelRecord(m, loads)
	if err != nil {
		t.Fatal(err)
	}
	rm, rl, err := decodeModelRecord(raw)
	if err != nil {
		t.Fatalf("decode of our own record: %v", err)
	}
	if d := diffModels(sameBits, rm, rl, m, loads); d != "" {
		t.Fatalf("record vs the model it was written from: %s", d)
	}
	om, ol := oracleDecode(t, m, loads)
	if d := diffModels(sameBitsOrZero, rm, rl, om, ol); d != "" {
		t.Fatalf("record vs gob oracle: %s", d)
	}
	again, err := encodeModelRecord(rm, rl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatalf("encode(decode(record)) differs from record: %d vs %d bytes", len(again), len(raw))
	}
	checkModelGrammar(t, modelGraph(rm, rl))
	return rm, rl
}

// TestModelRecordMatchesGobOracle is the seeded differential between the
// record codec and the gob codec it replaced.
func TestModelRecordMatchesGobOracle(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < n; i++ {
		m, loads := randomModel(rng)
		checkRecordAgainstOracle(t, m, loads)
	}
	fm, fl := format1Model()
	checkRecordAgainstOracle(t, fm, fl)

	// The three benchmark plates, and on each: the model a record gives
	// back solves to the bits the model gob gave back solves to.
	for _, g := range benchGrids {
		m, loads := benchGrid(t, g.name, g.nx, g.ny)
		rm, rl := checkRecordAgainstOracle(t, m, loads)
		om, ol := oracleDecode(t, m, loads)
		for _, backend := range []string{"", "cholesky-env"} {
			got, err := fem.Solve(context.Background(), rm, rl[0], fem.SolveOpts{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fem.Solve(context.Background(), om, ol[0], fem.SolveOpts{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			for d := range want.U {
				if math.Float64bits(got.U[d]) != math.Float64bits(want.U[d]) {
					t.Fatalf("grid %s backend %q: u[%d] = %x, oracle %x", g.name, backend, d, got.U[d], want.U[d])
				}
			}
		}
	}
}

// TestModelRecordLayout spells one small record out byte by byte — the
// layout table of docs/storage.md as a test — so the stored format cannot
// drift while every round trip still passes.
func TestModelRecordLayout(t *testing.T) {
	f := func(v float64) string { return string(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	mat := fem.Material{E: 1, Nu: 0.5, T: 2, A: 4}
	m := fem.NewModel("ab")
	m.AddNode(0, 0)
	m.AddNode(1.5, -2)
	for _, e := range []fem.Element{&fem.Bar{N1: 0, N2: 1, Mat: mat}, &fem.CST{N1: 1, N2: 0, N3: 1, Mat: mat}} {
		if err := m.AddElement(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []int{0, 3} {
		if err := m.FixDOF(d); err != nil {
			t.Fatal(err)
		}
	}
	loads := []*fem.LoadSet{{Name: "p", Entries: []fem.LoadEntry{{DOF: 2, Value: -1}}}}
	want := "\x00M\x02" + // magic: no gob stream opens with 0x00
		"\x02ab" + // name
		"\x02" + f(0) + f(0) + f(1.5) + f(-2) + // two nodes
		"\x02" + // two elements
		"\x00\x00\x01" + "\x00" + f(1) + f(0.5) + f(2) + f(4) + // bar 0-1, material 0: new, so it follows
		"\x01\x01\x00\x01" + "\x00" + // cst 1-0-1, material 0 again
		"\x01\x03\x00" + // fixed dofs 0 and 3 as gaps from -1, then the end
		"\x01" + "\x01p" + "\x01" + "\x04" + f(-1) // one load set "p", one entry: dof 2 zigzag, value
	got, err := encodeModelRecord(m, loads)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("record\n got %q\nwant %q", got, want)
	}
}

// TestModelRecordMaterialTable pins what the table buys and what it must
// not merge: one entry per distinct bit pattern, in first-use order.
func TestModelRecordMaterialTable(t *testing.T) {
	m, loads := benchGrid(t, "t", 12, 8)
	raw, err := encodeModelRecord(m, loads)
	if err != nil {
		t.Fatal(err)
	}
	// 117 nodes, 192 elements of 5 bytes, one material; gob wrote 8 279.
	if len(raw) != 3077 {
		t.Errorf("12x8 plate record is %d bytes, want 3077", len(raw))
	}
	nan1, nan2 := math.NaN(), math.Float64frombits(0x7ff8000000000123)
	tm := fem.NewModel("x")
	tm.AddNode(0, 0)
	tm.AddNode(1, 0)
	for _, e := range []float64{0, math.Copysign(0, -1), nan1, nan2, nan1, 0} {
		if err := tm.AddElement(&fem.Bar{N1: 0, N2: 1, Mat: fem.Material{E: e}}); err != nil {
			t.Fatal(err)
		}
	}
	one, err := encodeModelRecord(tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Four distinct patterns among six elements: four 32-byte entries.
	if want := 3 + 2 + 1 + 2*16 + 1 + 6*4 + 4*32 + 1 + 1; len(one) != want {
		t.Errorf("record is %d bytes, want %d (four table entries)", len(one), want)
	}
	checkRecordAgainstOracle(t, tm, nil)
}

type otherElement struct{ *fem.Bar }

func (otherElement) Kind() string { return "beam" }

func TestModelRecordRefusesUnknownElementKind(t *testing.T) {
	m := fem.NewModel("x")
	m.AddNode(0, 0)
	m.AddNode(1, 0)
	if err := m.AddElement(otherElement{&fem.Bar{N1: 0, N2: 1}}); err != nil {
		t.Fatal(err)
	}
	err := NewDatabase().Store(m, nil)
	if err == nil || err.Error() != `auvm: cannot serialize element kind "beam"` {
		t.Errorf("Store = %v", err)
	}
}

// TestModelRecordStoreAllocs holds Store to the record buffer and what
// the store's Put costs.  The gob encoder alone allocated 74 times.
func TestModelRecordStoreAllocs(t *testing.T) {
	m, loads := benchGrid(t, "t", 12, 8)
	db := NewDatabase()
	if err := db.Store(m, loads); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { db.Store(m, loads) }); n > 6 {
		t.Errorf("Store of the 12x8 plate allocates %v times, want <= 6", n)
	}
}

// TestStoreRetrieveAllocationCeiling holds a model's trip through a
// file-backed database to costs that do not grow with its elements.
// Retrieve reads the elements of a kind into one array, so the 12×8 and
// the 40×24 plate take the same count of allocations: 14 (15 under
// -race), where an object per element took 403 and 3 861.  A steady-state Store encodes into the database's record
// buffer and frames into the file store's, so it allocates no buffer of
// the record's size: a few bytes, against 7 302 and 65 669 when each
// store made both anew.
func TestStoreRetrieveAllocationCeiling(t *testing.T) {
	const retrieveAllocs, storeBytes, runs = 16, 64, 50
	db, st := openFileDB(t, filepath.Join(t.TempDir(), "db"))
	defer st.Close()
	var counts []float64
	for _, g := range []struct {
		name   string
		nx, ny int
	}{{"t", 12, 8}, {"l", 40, 24}} {
		m, loads := benchGrid(t, g.name, g.nx, g.ny)
		if err := db.Store(m, loads); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, _, err := db.Retrieve(g.name); err != nil {
				t.Fatal(err)
			}
		})
		if n > retrieveAllocs {
			t.Errorf("Retrieve of the %dx%d plate allocates %v times, ceiling %d", g.nx, g.ny, n, retrieveAllocs)
		}
		counts = append(counts, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := db.Store(m, loads); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > storeBytes {
			t.Errorf("a steady-state Store of the %dx%d plate allocates %d B, ceiling %d B", g.nx, g.ny, per, storeBytes)
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("Retrieve allocates %v times for the 12x8 plate and %v for the 40x24: the count grows with the model", counts[0], counts[1])
	}
}

// TestReusedRecordBufferLeaksNoBytes stores the 40×24 plate, then a 2×1
// plate, through one file-backed database, whose record buffer and frame
// buffer the second store reuses: the stored values, the index the file
// replays to on reopen and a record encoded into no reused buffer agree,
// and so do the models read back.
func TestReusedRecordBufferLeaksNoBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, st := openFileDB(t, path)
	var models []*fem.Model
	var sets [][]*fem.LoadSet
	for _, g := range []struct {
		name   string
		nx, ny int
	}{{"l", 40, 24}, {"s", 2, 1}} {
		m, loads := benchGrid(t, g.name, g.nx, g.ny)
		if err := db.Store(m, loads); err != nil {
			t.Fatal(err)
		}
		models, sets = append(models, m), append(sets, loads)
	}
	check := func(when string, st store.Store, db *Database) {
		t.Helper()
		for i, m := range models {
			want, err := encodeModelRecord(m, sets[i])
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.Get(store.ModelKey(m.Name))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: %q holds %d bytes (%v), a fresh encoding %d: they differ", when, m.Name, len(got), err, len(want))
			}
			rm, rl, err := db.Retrieve(m.Name)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffModels(sameBits, m, sets[i], rm, rl); d != "" {
				t.Fatalf("%s: %q reads back differently: %s", when, m.Name, d)
			}
		}
		names, _, err := db.List()
		if err != nil || fmt.Sprint(names) != "[l s]" {
			t.Fatalf("%s: List = %v, %v", when, names, err)
		}
	}
	check("after the stores", st, db)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db, st = openFileDB(t, path)
	defer st.Close()
	check("after reopen", st, db)
}

// TestModelRecordOfDescendingFixes pins a record byte for byte to what
// the encoder wrote when the model kept its fixes in a map: the fixes go
// in descending, with a repeat, and two of them belong to a node the
// truncated model no longer has, so the record leaves them out.
func TestModelRecordOfDescendingFixes(t *testing.T) {
	m := fem.NewModel("desc")
	for i := 0; i < 5; i++ {
		m.AddNode(float64(i), float64(i%2))
	}
	tie := fem.Material{E: 70000, Nu: 0.33, T: 2, A: 450}
	for _, e := range []fem.Element{
		&fem.CST{N1: 0, N2: 1, N3: 2, Mat: fem.Steel()},
		&fem.Bar{N1: 2, N2: 3, Mat: tie},
		&fem.CST{N1: 1, N2: 3, N3: 2, Mat: fem.Steel()},
	} {
		if err := m.AddElement(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []int{9, 8, 7, 6, 3, 1, 0, 3} {
		if err := m.FixDOF(d); err != nil {
			t.Fatal(err)
		}
	}
	m.Nodes = m.Nodes[:4]
	got, err := encodeModelRecord(m, []*fem.LoadSet{{Name: "l", Entries: []fem.LoadEntry{{DOF: 5, Value: -10}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Written by the map-keeping model's encoder (f112044).
	const want = "004d0204646573630400000000000000000000000000000000000000000000f03f000000000000f03f0000000000000040" +
		"00000000000000000000000000000840000000000000f03f03010001020000000000006a0841333333333333d33f0000000000002440" +
		"000000000000594000020301000000000017f1401f85eb51b81ed53f00000000000000400000000000207c40010103020001010203" +
		"010001016c010a00000000000024c0"
	if hex.EncodeToString(got) != want {
		t.Errorf("record\n got %x\nwant %s", got, want)
	}
}

// format1Model is the model internal/auvm/testdata/model_format1.gob and
// internal/core/testdata/store_format1.db hold.  Both files were written
// by the last format-1 commit's gobModel and are never regenerated.
func format1Model() (*fem.Model, []*fem.LoadSet) {
	steel := fem.Steel()
	tie := fem.Material{E: 70000, Nu: 0.33, T: 2, A: 450}
	strut := fem.Material{E: 200000, Nu: 0.3, T: 10, A: 1200}
	m := fem.NewModel("mixed")
	for _, c := range [][2]float64{{0, 0}, {100, 0}, {100, 80}, {0, 80}, {150, 40}} {
		m.AddNode(c[0], c[1])
	}
	for _, e := range []fem.Element{
		&fem.CST{N1: 0, N2: 1, N3: 2, Mat: steel},
		&fem.Bar{N1: 1, N2: 4, Mat: tie},
		&fem.CST{N1: 0, N2: 2, N3: 3, Mat: steel},
		&fem.Bar{N1: 2, N2: 4, Mat: tie},
		&fem.Bar{N1: 1, N2: 2, Mat: strut},
	} {
		if err := m.AddElement(e); err != nil {
			panic(err)
		}
	}
	for _, d := range []int{0, 1, 6, 7} {
		if err := m.FixDOF(d); err != nil {
			panic(err)
		}
	}
	return m, []*fem.LoadSet{
		{Name: "tip", Entries: []fem.LoadEntry{{DOF: 9, Value: -500}}},
		{Name: "push", Entries: []fem.LoadEntry{{DOF: 8, Value: 250}, {DOF: 5, Value: -0.5}}},
	}
}

func readFixture(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "model_format1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// oldStore is a mem store at format version holding kv, as a daemon
// before the current format left it.
func oldStore(t testing.TB, version string, kv map[string][]byte) *store.MemStore {
	t.Helper()
	st := store.NewMemStore()
	if version != "" {
		kv[store.KeyFormat] = []byte(version)
	}
	for k, v := range kv {
		if err := st.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestModelRecordFormat1StaysReadable upgrades a store holding bytes a
// format-1 daemon wrote: the model comes back as it was written, and the
// key holds the record store writes for it.
func TestModelRecordFormat1StaysReadable(t *testing.T) {
	st := oldStore(t, "1", map[string][]byte{store.ModelKey("mixed"): readFixture(t)})
	if err := UpgradeStore(st); err != nil {
		t.Fatal(err)
	}
	db := NewDatabaseOn(st, store.BackendMem)
	m, loads, err := db.Retrieve("mixed")
	if err != nil {
		t.Fatalf("Retrieve of an upgraded format-1 model: %v", err)
	}
	wm, wl := format1Model()
	wl[0], wl[1] = wl[1], wl[0] // push, tip: the upgrade writes them in name order, as store does
	if d := diffModels(sameBits, m, loads, wm, wl); d != "" {
		t.Fatalf("format-1 model: %s", d)
	}
	gr, err := db.ModelGraph("mixed")
	if err != nil {
		t.Fatal(err)
	}
	checkModelGrammar(t, gr)
	raw, err := st.Get(store.ModelKey("mixed"))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := encodeModelRecord(m, loads); !bytes.Equal(raw, want) {
		t.Fatalf("upgraded key holds %x, want the record store writes, %x", raw, want)
	}
}

// corruptOrderDTO names an element its slices do not hold.
func corruptOrderDTO() modelDTO { return modelDTO{Name: "x", Order: []byte{elemCST}} }

// TestModelRecordCorruptOrderIsAnError: a gob model whose Order outruns
// Bars/CSTs used to die on an unchecked index — a dead REPL locally, a
// server.panics and an internal reply over the wire.  The upgrade leaves
// it as it is, and retrieve reports it.
func TestModelRecordCorruptOrderIsAnError(t *testing.T) {
	dto := corruptOrderDTO()
	raw, err := gobModel(&dto)
	if err != nil {
		t.Fatal(err)
	}
	st := oldStore(t, "1", map[string][]byte{store.ModelKey("x"): raw})
	if err := UpgradeStore(st); err != nil {
		t.Fatalf("upgrade of a store holding a corrupt gob model: %v", err)
	}
	s := NewSession("u", NewDatabaseOn(st, store.BackendMem))
	if _, err := s.Execute("retrieve x"); !errors.Is(err, errCorruptRecord) {
		t.Errorf("retrieve = %v, want %v", err, errCorruptRecord)
	}

	var snap bytes.Buffer
	snap.WriteString(legacySnapshotMagic)
	if err := gob.NewEncoder(&snap).Encode(&snapshotDTO{Models: []modelSnapshotDTO{{Model: corruptOrderDTO()}}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(context.Background(), command.Restore{Path: path}); !errors.Is(err, errCorruptRecord) {
		t.Errorf("restore = %v, want %v", err, errCorruptRecord)
	}
}

// TestModelRecordRefusesDamage cuts and pads a record at every offset and
// plants counts no input of that size can hold.
func TestModelRecordRefusesDamage(t *testing.T) {
	m, loads := format1Model()
	raw, err := encodeModelRecord(m, loads)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, _, err := decodeModelRecord(raw[:cut]); err == nil {
			t.Errorf("record cut to %d of %d bytes decoded", cut, len(raw))
		}
	}
	if _, _, err := decodeModelRecord(append(raw[:len(raw):len(raw)], 0)); !errors.Is(err, errCorruptRecord) {
		t.Errorf("trailing byte: %v", err)
	}
	future := append([]byte(nil), raw...)
	future[2]++
	if _, _, err := decodeModelRecord(future); err == nil || errors.Is(err, errCorruptRecord) {
		t.Errorf("record version %d: %v, want a version error", future[2], err)
	}

	// Two bars, the second introducing a table entry: one with bits of its
	// own reads, one repeating the first entry is corrupt, since the
	// writer gives one material one entry.
	twoMaterials := func(e2 float64) []byte {
		b := []byte{0, recordTag, recordVersion, 0, 2} // no name, two nodes
		for _, xy := range []float64{0, 0, 1, 0} {
			b = appendFloat(b, xy)
		}
		b = append(b, 2, elemBar, 0, 1, 0)
		b = appendMaterial(b, fem.Material{E: 1, A: 1})
		b = append(b, elemBar, 0, 1, 1)
		b = appendMaterial(b, fem.Material{E: e2, A: 1})
		return append(b, 0, 0)
	}
	if _, _, err := decodeModelRecord(twoMaterials(2)); err != nil {
		t.Errorf("two materials: %v", err)
	}
	if _, _, err := decodeModelRecord(twoMaterials(1)); !errors.Is(err, errCorruptRecord) {
		t.Errorf("a material entry repeated: %v, want %v", err, errCorruptRecord)
	}

	huge := binary.AppendUvarint(nil, 1<<60)
	head := []byte{0, recordTag, recordVersion}
	for name, in := range map[string][]byte{
		"name length":   append(append([]byte(nil), head...), huge...),
		"node count":    append(append(head[:3:3], 0), huge...),
		"element count": append(append(head[:3:3], 0, 0), huge...),
		"fixed gap":     append(append(head[:3:3], 0, 0, 0), huge...),
		"load sets":     append(append(head[:3:3], 0, 0, 0, 0), huge...),
		"load entries":  append(append(head[:3:3], 0, 0, 0, 0, 1, 0), huge...),
	} {
		in = append(in, make([]byte, 8)...)
		if _, _, err := decodeModelRecord(in); !errors.Is(err, errCorruptRecord) {
			t.Errorf("2^60 as %s: %v, want %v", name, err, errCorruptRecord)
		}
	}
}

// FuzzModelRecord feeds retrieve arbitrary bytes: it may not panic or
// allocate out of proportion to its input, and whatever it accepts must
// be in the model grammar's language and re-encode to a record it
// accepts to an equal model.  The gob fixture is a seed like any other.
func FuzzModelRecord(f *testing.F) {
	for _, g := range benchGrids {
		m, loads := benchGrid(f, g.name, g.nx, g.ny)
		raw, err := encodeModelRecord(m, loads)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(readFixture(f))
	var dirty []byte
	f.Fuzz(func(t *testing.T, raw []byte) {
		st := store.NewMemStore()
		if err := st.Put(store.ModelKey("f"), raw); err != nil {
			t.Fatal(err)
		}
		db := NewDatabaseOn(st, store.BackendMem)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, loads, err := db.Retrieve("f")
		runtime.ReadMemStats(&after)
		// An element is at least 4 bytes of input and 80 of model; the
		// slack covers the empty model and the runtime's own goroutines.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+(1<<16)); got > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(raw), got, limit)
		}
		if err != nil {
			return
		}
		checkModelGrammar(t, modelGraph(m, loads))
		again, err := encodeModelRecord(m, loads)
		if err != nil {
			t.Fatalf("re-encode of an accepted record: %v", err)
		}
		// Database.Store encodes into the buffer the last store left
		// behind, dirty with that record's bytes.
		reused, err := appendModelRecord(dirty[:0], m, loads)
		if err != nil || !bytes.Equal(reused, again) {
			t.Fatalf("re-encode into a reused buffer: %v, %d bytes against %d, equal %v", err, len(reused), len(again), bytes.Equal(reused, again))
		}
		dirty = reused
		m2, loads2, err := decodeModelRecord(again)
		if err != nil {
			t.Fatalf("re-encoded record refused: %v", err)
		}
		if d := diffModels(sameBits, m, loads, m2, loads2); d != "" {
			t.Fatalf("re-encoded record decodes differently: %s", d)
		}
	})
}
