package auvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/fem"
	"repro/internal/hgraph"
)

// The stored form of a model under "m:<name>" since store format 2: one
// append pass over the fem.Model writes it, one pass over the bytes
// reads it back.  docs/storage.md has the layout table; in order:
//
//	0x00 'M' version
//	name
//	node count, then X and Y of every node
//	element count, then per element: kind, node ids, material
//	fixed dofs ascending, each as its gap to the one before, 0 ends them
//	load-set count, then per set: name, entry count, (dof, value) pairs
//
// Counts, lengths, node ids and gaps are uvarints, load dofs signed
// varints, floats their IEEE-754 bit patterns little-endian.  A material
// is its index in a table kept in first-use order; an index equal to the
// table's length introduces the next entry, whose E, Nu, T and A follow
// it.  Entries are compared by bit pattern, so -0 and +0 are two
// materials and a NaN equals only its own bits.  One model has one
// encoding.
const (
	recordTag     = 'M'
	recordVersion = 2
)

// Element kind bytes — the values a format-1 modelDTO.Order uses too.
const (
	elemBar = 0
	elemCST = 1
)

// errCorruptRecord is what a stored model that cannot be read back
// decodes to, in either format.
var errCorruptRecord = errors.New("auvm: corrupt model record")

// matBits is a material as the bit patterns of E, Nu, T and A.
type matBits [4]uint64

func materialBits(m fem.Material) matBits {
	return matBits{math.Float64bits(m.E), math.Float64bits(m.Nu), math.Float64bits(m.T), math.Float64bits(m.A)}
}

// encodeModelRecord writes a model and its load sets as a record.
func encodeModelRecord(m *fem.Model, loads []*fem.LoadSet) ([]byte, error) {
	return appendModelRecord(nil, m, loads)
}

// appendModelRecord appends the record of a model and its load sets to
// b, growing it at most once for a record that fits the size guess.
func appendModelRecord(b []byte, m *fem.Model, loads []*fem.LoadSet) ([]byte, error) {
	fixed := m.FixedDOFs()
	// Exact for the nodes, a guess for the rest (ids and indices of one
	// or two bytes, a handful of materials); append grows a short guess.
	size := 64 + len(m.Name) + 16*len(m.Nodes) + 8*len(m.Elements) + 2*len(fixed) + 4*32
	for _, ls := range loads {
		size += 12 + len(ls.Name) + 11*len(ls.Entries)
	}
	b = append(slices.Grow(b, size), 0, recordTag, recordVersion)
	b = appendString(b, m.Name)

	b = binary.AppendUvarint(b, uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		b = appendFloat(appendFloat(b, n.X), n.Y)
	}

	b = binary.AppendUvarint(b, uint64(len(m.Elements)))
	var mats materialTable
	for _, e := range m.Elements {
		var mat fem.Material
		switch el := e.(type) {
		case *fem.Bar:
			b = append(b, elemBar)
			b = binary.AppendUvarint(b, uint64(el.N1))
			b = binary.AppendUvarint(b, uint64(el.N2))
			mat = el.Mat
		case *fem.CST:
			b = append(b, elemCST)
			b = binary.AppendUvarint(b, uint64(el.N1))
			b = binary.AppendUvarint(b, uint64(el.N2))
			b = binary.AppendUvarint(b, uint64(el.N3))
			mat = el.Mat
		default:
			return nil, fmt.Errorf("auvm: cannot serialize element kind %q", e.Kind())
		}
		idx, seen := mats.index(materialBits(mat))
		b = binary.AppendUvarint(b, uint64(idx))
		if !seen {
			b = appendMaterial(b, mat)
		}
	}

	prev := -1
	for _, d := range fixed {
		b = binary.AppendUvarint(b, uint64(d-prev))
		prev = d
	}
	b = append(b, 0)

	b = binary.AppendUvarint(b, uint64(len(loads)))
	for _, ls := range loads {
		b = appendString(b, ls.Name)
		b = binary.AppendUvarint(b, uint64(len(ls.Entries)))
		for _, e := range ls.Entries {
			b = appendFloat(binary.AppendVarint(b, int64(e.DOF)), e.Value)
		}
	}
	return b, nil
}

// materialTable numbers materials in first-use order.  The material of
// the element before answers without a map: a plate of one material
// encodes with no map access, and a map is made only for a second
// material.
type materialTable struct {
	last    matBits
	lastIdx int
	n       int // entries so far
	idx     map[matBits]int
}

// index returns key's entry, adding it when it is new (seen false).
func (t *materialTable) index(key matBits) (idx int, seen bool) {
	if t.n > 0 && key == t.last {
		return t.lastIdx, true
	}
	if t.n > 0 {
		if t.idx == nil {
			t.idx = map[matBits]int{t.last: t.lastIdx}
		}
		idx, seen = t.idx[key]
	}
	if !seen {
		idx = t.n
		t.n++
		if t.idx != nil {
			t.idx[key] = idx
		}
	}
	t.last, t.lastIdx = key, idx
	return idx, seen
}

// modelGraph builds the H-graph of a model and its load sets.  Elements
// of one material share its node, as they share its material table entry
// in the record.
func modelGraph(m *fem.Model, loads []*fem.LoadSet) *hgraph.Graph {
	g := hgraph.NewGraph("model")
	root := g.Add("model")
	root.Arc("name", g.AddAtom("name", hgraph.Str(m.Name)))
	root.Arc("nodes", g.AddList("nodes", len(m.Nodes), func(i int) *hgraph.Node {
		n := g.Add("node")
		n.Arc("x", g.AddAtom("x", hgraph.Float(m.Nodes[i].X)))
		n.Arc("y", g.AddAtom("y", hgraph.Float(m.Nodes[i].Y)))
		return n
	}))
	mats := map[matBits]*hgraph.Node{}
	root.Arc("elements", g.AddList("elements", len(m.Elements), func(i int) *hgraph.Node {
		e := m.Elements[i]
		n := g.Add(e.Kind())
		n.Arc("kind", g.AddAtom("kind", hgraph.Str(e.Kind())))
		for j, id := range e.AppendNodes(nil) {
			n.Arc("n"+strconv.Itoa(j+1), g.AddAtom("node", hgraph.Int(int64(id))))
		}
		var mat fem.Material
		switch el := e.(type) {
		case *fem.Bar:
			mat = el.Mat
		case *fem.CST:
			mat = el.Mat
		}
		mn := mats[materialBits(mat)]
		if mn == nil {
			mn = g.Add("material")
			mn.Arc("E", g.AddAtom("E", hgraph.Float(mat.E)))
			mn.Arc("nu", g.AddAtom("nu", hgraph.Float(mat.Nu)))
			mn.Arc("t", g.AddAtom("t", hgraph.Float(mat.T)))
			mn.Arc("A", g.AddAtom("A", hgraph.Float(mat.A)))
			mats[materialBits(mat)] = mn
		}
		n.Arc("material", mn)
		return n
	}))
	fixed := m.FixedDOFs()
	root.Arc("fixed", g.AddList("fixed", len(fixed), func(i int) *hgraph.Node {
		return g.AddAtom("dof", hgraph.Int(int64(fixed[i])))
	}))
	root.Arc("loads", g.AddList("loads", len(loads), func(i int) *hgraph.Node {
		ls := g.Add("loadset")
		ls.Arc("name", g.AddAtom("name", hgraph.Str(loads[i].Name)))
		ls.Arc("entries", g.AddList("entries", len(loads[i].Entries), func(j int) *hgraph.Node {
			e := g.Add("entry")
			e.Arc("dof", g.AddAtom("dof", hgraph.Int(int64(loads[i].Entries[j].DOF))))
			e.Arc("value", g.AddAtom("value", hgraph.Float(loads[i].Entries[j].Value)))
			return e
		}))
		return ls
	}))
	return g
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendFloats writes a count, then the floats.
func appendFloats(b []byte, fs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = appendFloat(b, f)
	}
	return b
}

func appendMaterial(b []byte, m fem.Material) []byte {
	b = appendFloat(b, m.E)
	b = appendFloat(b, m.Nu)
	b = appendFloat(b, m.T)
	return appendFloat(b, m.A)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decodeModelRecord reads a record back.  Every count is checked against
// the bytes that remain before anything is allocated for it, trailing
// bytes are refused, and the model is built through the fem constructors,
// so their validation runs on stored data as it does on typed data.
func decodeModelRecord(raw []byte) (*fem.Model, []*fem.LoadSet, error) {
	if len(raw) < 3 || raw[0] != 0 || raw[1] != recordTag {
		return nil, nil, errCorruptRecord
	}
	if raw[2] != recordVersion {
		return nil, nil, fmt.Errorf("auvm: model record version %d not supported (want %d)", raw[2], recordVersion)
	}
	r := recordReader{b: raw[3:]}
	m := fem.NewModel(r.str())

	n := r.count(16)
	m.Nodes = make([]fem.NodeCoord, 0, n)
	for i := 0; i < n; i++ {
		m.AddNode(r.float(), r.float())
	}

	// The elements of a kind share one array, sized at the kind's first
	// element for every element still to come, so it never moves.
	n = r.count(4)
	m.Elements = make([]fem.Element, 0, n)
	var bars []fem.Bar
	var csts []fem.CST
	for i := 0; i < n; i++ {
		var e fem.Element
		switch r.byte() {
		case elemBar:
			if bars == nil {
				bars = make([]fem.Bar, 0, n-i)
			}
			bars = append(bars, fem.Bar{N1: int(r.uvarint()), N2: int(r.uvarint()), Mat: r.material()})
			e = &bars[len(bars)-1]
		case elemCST:
			if csts == nil {
				csts = make([]fem.CST, 0, n-i)
			}
			csts = append(csts, fem.CST{N1: int(r.uvarint()), N2: int(r.uvarint()), N3: int(r.uvarint()), Mat: r.material()})
			e = &csts[len(csts)-1]
		default:
			r.bad = true
		}
		if r.bad {
			return nil, nil, errCorruptRecord
		}
		if err := m.AddElement(e); err != nil {
			return nil, nil, err
		}
	}

	m.GrowFixed(r.gaps())
	for d := -1; ; {
		gap := r.uvarint()
		if gap == 0 {
			break
		}
		if gap > uint64(m.NumDOF()) {
			return nil, nil, errCorruptRecord
		}
		d += int(gap)
		if err := m.FixDOF(d); err != nil {
			return nil, nil, err
		}
	}

	n = r.count(2)
	loads := make([]*fem.LoadSet, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		ls := &fem.LoadSet{Name: r.str(), Entries: make([]fem.LoadEntry, r.count(9))}
		for j := range ls.Entries {
			ls.Entries[j] = fem.LoadEntry{DOF: int(r.varint()), Value: r.float()}
		}
		loads = append(loads, ls)
	}
	if r.bad || len(r.b) != 0 {
		return nil, nil, errCorruptRecord
	}
	return m, loads, nil
}

// recordReader is a cursor over a record's bytes.  A read the bytes
// cannot satisfy empties it and sets bad, so every later read fails too
// and callers test bad once per loop turn, not after every field.  A
// varint in more bytes than it needs is refused too, so bytes that read
// back write back as themselves.
type recordReader struct {
	b    []byte
	bad  bool
	mats []fem.Material   // the material table, in first-use order
	seen map[matBits]bool // the table's entries
}

func (r *recordReader) fail() {
	r.b, r.bad = nil, true
}

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recordReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recordReader) byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *recordReader) float() float64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// count reads how many items follow, each at least size bytes long, and
// fails if that many cannot fit in what is left — before the caller
// allocates for them.
func (r *recordReader) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		r.fail()
		return 0
	}
	return int(n)
}

// gaps counts the fixed-dof gaps ahead of the 0 that ends them, without
// reading them: each uvarint ends in its one byte below 0x80, and no
// uvarint the reader accepts has a 0 byte but the value 0 itself.
func (r *recordReader) gaps() int {
	n := 0
	for _, c := range r.b {
		if c == 0 {
			break
		}
		if c < 0x80 {
			n++
		}
	}
	return n
}

func (r *recordReader) str() string { return string(r.bytes()) }

// bytes reads a length, then that many bytes.
func (r *recordReader) bytes() []byte {
	n := r.count(1)
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// bool reads a byte that must be 0 or 1.
func (r *recordReader) bool() bool {
	c := r.byte()
	if c > 1 {
		r.fail()
	}
	return c == 1
}

// floats reads what appendFloats wrote.
func (r *recordReader) floats() []float64 {
	fs := make([]float64, r.count(8))
	for i := range fs {
		fs[i] = r.float()
	}
	return fs
}

func (r *recordReader) materialFields() fem.Material {
	return fem.Material{E: r.float(), Nu: r.float(), T: r.float(), A: r.float()}
}

// material reads an element's material: an index into the table read so
// far, or the table's length followed by the next entry.  A next entry
// whose bits are already in the table is refused: the writer gives one
// material one entry.
func (r *recordReader) material() fem.Material {
	idx := r.uvarint()
	switch {
	case idx < uint64(len(r.mats)):
		return r.mats[idx]
	case idx == uint64(len(r.mats)) && !r.bad:
		mat := r.materialFields()
		if r.seen[materialBits(mat)] {
			break
		}
		if r.seen == nil {
			r.seen = map[matBits]bool{}
		}
		r.seen[materialBits(mat)] = true
		r.mats = append(r.mats, mat)
		return mat
	}
	r.fail()
	return fem.Material{}
}
