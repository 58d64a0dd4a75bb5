package fem

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// mapFixed is the constraint set as a map, the form the model kept before
// its ascending list; its FreeDOFs and Validate are the old bodies, the
// oracles of TestFixedListMatchesTheMapOracle.
type mapFixed map[int]bool

func (f mapFixed) FreeDOFs(m *Model) (free []int, index []int) {
	n := m.NumDOF()
	index = make([]int, n)
	for d, fixed := range f {
		if fixed && d < n {
			index[d] = -1
		}
	}
	free = make([]int, 0, max(n-len(f), 0))
	for d := range index {
		if index[d] == 0 {
			index[d] = len(free)
			free = append(free, d)
		}
	}
	return free, index
}

func (f mapFixed) Validate(m *Model) error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("%w: no nodes", ErrModel)
	}
	if len(m.Elements) == 0 {
		return fmt.Errorf("%w: no elements", ErrModel)
	}
	n, stale := m.NumDOF(), -1
	for d := range f {
		if d >= n && (stale < 0 || d < stale) {
			stale = d
		}
	}
	if stale >= 0 {
		return fmt.Errorf("%w: fixed dof %d of %d (its node is gone)", ErrModel, stale, n)
	}
	if len(f) < 3 {
		return fmt.Errorf("%w: only %d constrained freedoms; 2D statics needs >= 3", ErrModel, len(f))
	}
	return nil
}

// TestFixDOFKeepsAnAscendingList fixes dofs out of order and repeated:
// the list is ascending with no repeats, and Fixed, NumFixed and
// FixedDOFs read it.
func TestFixDOFKeepsAnAscendingList(t *testing.T) {
	m := NewModel("m")
	for i := 0; i < 12; i++ {
		m.AddNode(float64(i), 0)
	}
	for _, d := range []int{7, 3, 3, 19, 0, 7, 12, 23, 1, 12} {
		if err := m.FixDOF(d); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{0, 1, 3, 7, 12, 19, 23}
	if !slices.Equal(m.fixed, want) || !slices.Equal(m.FixedDOFs(), want) {
		t.Fatalf("fixed %v, FixedDOFs %v, want %v", m.fixed, m.FixedDOFs(), want)
	}
	if m.NumFixed() != len(want) {
		t.Fatalf("NumFixed %d, want %d", m.NumFixed(), len(want))
	}
	for d := -1; d <= m.NumDOF(); d++ {
		if m.Fixed(d) != slices.Contains(want, d) {
			t.Errorf("Fixed(%d) = %v", d, m.Fixed(d))
		}
	}
	if err := m.FixDOF(24); err == nil || err.Error() != "fem: invalid model: fix dof 24 of 24" {
		t.Fatalf("FixDOF past the last dof: %v", err)
	}
	// Truncating the nodes leaves the fixes of the dropped ones behind:
	// FixedDOFs leaves them out, NumFixed and Fixed still count them.
	m.Nodes = m.Nodes[:6]
	if got := m.FixedDOFs(); !slices.Equal(got, []int{0, 1, 3, 7}) {
		t.Fatalf("FixedDOFs after truncation %v", got)
	}
	if m.NumFixed() != len(want) || !m.Fixed(19) {
		t.Fatalf("NumFixed %d, Fixed(19) %v after truncation", m.NumFixed(), m.Fixed(19))
	}
}

// TestValidateErrorTexts pins Validate's two constraint refusals, word
// for word: the smallest stale dof is named, and too few fixes are
// counted.
func TestValidateErrorTexts(t *testing.T) {
	m := NewModel("m")
	for i := 0; i < 8; i++ {
		m.AddNode(float64(i), float64(i%2))
	}
	if err := m.AddElement(&Bar{N1: 0, N2: 1, Mat: Steel()}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{15, 1, 12, 0} {
		if err := m.FixDOF(d); err != nil {
			t.Fatal(err)
		}
	}
	m.Nodes = m.Nodes[:5]
	if err := m.Validate(); err == nil || err.Error() != "fem: invalid model: fixed dof 12 of 10 (its node is gone)" {
		t.Fatalf("stale fixes: %v", err)
	}
	m.Nodes = m.Nodes[:4]
	m.fixed = m.fixed[:2]
	if err := m.Validate(); err == nil || err.Error() != "fem: invalid model: only 2 constrained freedoms; 2D statics needs >= 3" {
		t.Fatalf("two fixes: %v", err)
	}
}

// TestFixedListMatchesTheMapOracle is a seeded differential test: random
// FixDOF sequences (out of order, repeated, out of range), then a random
// truncation of the nodes, read through the list and through the map
// the model kept before it.  FreeDOFs, Validate, Fixed and NumFixed
// agree.
func TestFixedListMatchesTheMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 500; trial++ {
		m := NewModel("m")
		nodes := 1 + rng.Intn(12)
		for i := 0; i < nodes; i++ {
			m.AddNode(float64(i), float64(rng.Intn(3)))
		}
		if rng.Intn(4) > 0 {
			if err := m.AddElement(&Bar{N1: 0, N2: rng.Intn(nodes), Mat: Steel()}); err != nil {
				t.Fatal(err)
			}
		}
		oracle := mapFixed{}
		for range rng.Intn(3 * nodes) {
			d := rng.Intn(m.NumDOF()+2) - 1
			err := m.FixDOF(d)
			if (err == nil) != (d >= 0 && d < m.NumDOF()) {
				t.Fatalf("trial %d: FixDOF(%d) of %d: %v", trial, d, m.NumDOF(), err)
			}
			if err == nil {
				oracle[d] = true
			}
		}
		if rng.Intn(2) == 0 {
			m.Nodes = m.Nodes[:rng.Intn(nodes+1)]
		}
		free, index := m.FreeDOFs()
		wantFree, wantIndex := oracle.FreeDOFs(m)
		if !reflect.DeepEqual(free, wantFree) || !reflect.DeepEqual(index, wantIndex) {
			t.Fatalf("trial %d: FreeDOFs %v %v, oracle %v %v", trial, free, index, wantFree, wantIndex)
		}
		if got, want := fmt.Sprint(m.Validate()), fmt.Sprint(oracle.Validate(m)); got != want {
			t.Fatalf("trial %d: Validate %q, oracle %q", trial, got, want)
		}
		if m.NumFixed() != len(oracle) {
			t.Fatalf("trial %d: NumFixed %d, oracle %d", trial, m.NumFixed(), len(oracle))
		}
		for d := -1; d <= 2*nodes; d++ {
			if m.Fixed(d) != oracle[d] {
				t.Fatalf("trial %d: Fixed(%d) = %v, oracle %v", trial, d, m.Fixed(d), oracle[d])
			}
		}
	}
}

// TestAddElementChecksNodesWithoutAllocating refuses the first node id
// the model does not have, in element-local order, for a *CST, a *Bar
// and any other element, and checks a *CST or a *Bar without allocating.
func TestAddElementChecksNodesWithoutAllocating(t *testing.T) {
	m := NewModel("m")
	for i := 0; i < 3; i++ {
		m.AddNode(float64(i), float64(i%2))
	}
	for _, c := range []struct {
		e    Element
		want string
	}{
		{&CST{N1: 0, N2: 4, N3: -1}, "fem: invalid model: element references node 4 of 3"},
		{&CST{N1: 0, N2: 1, N3: -1}, "fem: invalid model: element references node -1 of 3"},
		{&Bar{N1: 3, N2: 7}, "fem: invalid model: element references node 3 of 3"},
		{&stiffCST{CST{N1: 2, N2: 9, N3: 5}}, "fem: invalid model: element references node 9 of 3"},
	} {
		if err := m.AddElement(c.e); err == nil || err.Error() != c.want {
			t.Errorf("AddElement(%#v) = %v, want %s", c.e, err, c.want)
		}
	}
	if len(m.Elements) != 0 {
		t.Fatalf("refused elements were added: %d", len(m.Elements))
	}
	cst, bar := &CST{N1: 0, N2: 1, N3: 2}, &Bar{N1: 2, N2: 0}
	m.Elements = make([]Element, 0, 2*101)
	if n := testing.AllocsPerRun(100, func() {
		if m.AddElement(cst) != nil || m.AddElement(bar) != nil {
			t.Fatal("AddElement refused a valid element")
		}
	}); n != 0 {
		t.Fatalf("AddElement of a *CST and a *Bar allocates %v times, want 0", n)
	}
}
