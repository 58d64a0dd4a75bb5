package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// referencePattern builds the expected (row-major, deduplicated, sorted)
// entry list with a comparison sort, for checking the counting sort.
func referencePattern(n int, rows, cols []int) (rowPtr, colIdx []int) {
	type rc struct{ r, c int }
	seen := map[rc]bool{}
	var es []rc
	for k := range rows {
		e := rc{rows[k], cols[k]}
		if !seen[e] {
			seen[e] = true
			es = append(es, e)
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].r != es[j].r {
			return es[i].r < es[j].r
		}
		return es[i].c < es[j].c
	})
	rowPtr = make([]int, n+1)
	for _, e := range es {
		colIdx = append(colIdx, e.c)
		rowPtr[e.r+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return rowPtr, colIdx
}

// oraclePattern is NewPattern as it stood before it took int32
// coordinates: two stable counting sorts through []int buffers, by column
// then by row, a fresh scatter map, and ColIdx at capacity m.
func oraclePattern(n int, rows, cols []int) (*Pattern, []int, error) {
	if len(rows) != len(cols) {
		return nil, nil, fmt.Errorf("%w: pattern rows %d vs cols %d", ErrDimension, len(rows), len(cols))
	}
	m := len(rows)
	for k := 0; k < m; k++ {
		if rows[k] < 0 || rows[k] >= n || cols[k] < 0 || cols[k] >= n {
			return nil, nil, fmt.Errorf("linalg: entry (%d,%d) outside order %d", rows[k], cols[k], n)
		}
	}
	// Pass 1: stable counting sort of entry indices by column.
	cnt := make([]int, n+1)
	for _, c := range cols {
		cnt[c+1]++
	}
	for c := 0; c < n; c++ {
		cnt[c+1] += cnt[c]
	}
	byCol := make([]int, m)
	for k := 0; k < m; k++ {
		c := cols[k]
		byCol[cnt[c]] = k
		cnt[c]++
	}
	// Pass 2: stable counting sort of the column-ordered indices by row,
	// yielding entries sorted by (row, col), ties in input order.
	for i := range cnt {
		cnt[i] = 0
	}
	for _, r := range rows {
		cnt[r+1]++
	}
	for r := 0; r < n; r++ {
		cnt[r+1] += cnt[r]
	}
	order := make([]int, m)
	for _, k := range byCol {
		r := rows[k]
		order[cnt[r]] = k
		cnt[r]++
	}
	// Collapse duplicates into the CSR pattern while recording where
	// each input coordinate scatters.
	p := &Pattern{N: n, RowPtr: make([]int, n+1)}
	scatter := make([]int, m)
	colIdx := make([]int, 0, m)
	prevRow, prevCol := -1, -1
	for _, k := range order {
		r, c := rows[k], cols[k]
		if r != prevRow || c != prevCol {
			colIdx = append(colIdx, c)
			p.RowPtr[r+1]++
			prevRow, prevCol = r, c
		}
		scatter[k] = len(colIdx) - 1
	}
	for i := 0; i < n; i++ {
		p.RowPtr[i+1] += p.RowPtr[i]
	}
	p.ColIdx = colIdx
	return p, scatter, nil
}

// coords is one NewPattern input: coordinates, and the holes among them
// (a negative scatter slot on entry).
type coords struct {
	n          int
	rows, cols []int32
	hole       []bool
}

// randomCoords draws m coordinates of an n×n matrix from a few rows and
// columns each (so duplicates are common and some rows stay empty), a
// quarter of them holes when holes is set.
func randomCoords(rng *rand.Rand, n, m int, holes bool) coords {
	in := coords{n: n, rows: make([]int32, m), cols: make([]int32, m), hole: make([]bool, m)}
	if n == 0 {
		m = 0
		in.rows, in.cols, in.hole = in.rows[:0], in.cols[:0], in.hole[:0]
	}
	spread := 1 + rng.Intn(max(n, 1))
	for k := 0; k < m; k++ {
		in.rows[k] = int32(rng.Intn(spread) * n / spread)
		in.cols[k] = int32(rng.Intn(n))
		in.hole[k] = holes && rng.Intn(4) == 0
	}
	return in
}

// checkAgainstOracle runs NewPattern on in and oraclePattern on its
// coordinates that are not holes, and demands the same error text, or the
// same RowPtr, ColIdx and scatter map, an exact ColIdx, and holes left as
// they were.
func checkAgainstOracle(t *testing.T, in coords) {
	t.Helper()
	scatter := make([]int32, len(in.rows))
	var orows, ocols []int
	for k := range in.rows {
		if in.hole[k] {
			scatter[k] = -1 - int32(k%3)
			continue
		}
		orows, ocols = append(orows, int(in.rows[k])), append(ocols, int(in.cols[k]))
	}
	want, wantScatter, wantErr := oraclePattern(in.n, orows, ocols)
	got, err := NewPattern(in.n, in.rows, in.cols, scatter)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("n=%d: error %v, oracle's %v", in.n, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.N != want.N || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("n=%d: pattern %d %v %v, oracle's %d %v %v", in.n, got.N, got.RowPtr, got.ColIdx, want.N, want.RowPtr, want.ColIdx)
	}
	if cap(got.ColIdx) != len(got.ColIdx) {
		t.Fatalf("n=%d: ColIdx of length %d kept at capacity %d", in.n, len(got.ColIdx), cap(got.ColIdx))
	}
	o := 0
	for k, s := range scatter {
		if in.hole[k] {
			if s != -1-int32(k%3) {
				t.Fatalf("n=%d: hole %d overwritten with %d", in.n, k, s)
			}
			continue
		}
		if int(s) != wantScatter[o] {
			t.Fatalf("n=%d: scatter[%d] = %d, oracle's %d", in.n, k, s, wantScatter[o])
		}
		o++
	}
}

// TestPatternMatchesIntOracle holds NewPattern to oraclePattern on seeded
// random coordinate lists: duplicates, empty rows, holes, orders 0 and 1.
func TestPatternMatchesIntOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(40)
		if trial < 20 {
			n = trial % 2
		}
		checkAgainstOracle(t, randomCoords(rng, n, rng.Intn(8*n+4), trial%2 == 1))
	}
}

// FuzzNewPattern holds NewPattern to oraclePattern on arbitrary
// coordinates: each three bytes of data are a row, a column and a hole
// bit; a row or column of n is out of range, so the errors meet too.
func FuzzNewPattern(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{0, 0, 0})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(3), []byte{2, 1, 0, 0, 2, 0, 2, 1, 0, 1, 1, 1, 2, 0, 0})
	f.Add(uint8(4), []byte{3, 3, 0, 0, 0, 0, 3, 0, 0, 0, 3, 0, 3, 3, 0, 1, 2, 1})
	f.Add(uint8(2), []byte{0, 2, 0})
	f.Add(uint8(2), []byte{2, 0, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		in := coords{n: int(n % 64)}
		for ; len(data) >= 3; data = data[3:] {
			in.rows = append(in.rows, int32(data[0])%int32(in.n+1))
			in.cols = append(in.cols, int32(data[1])%int32(in.n+1))
			in.hole = append(in.hole, data[2]&1 == 1)
		}
		checkAgainstOracle(t, in)
	})
}

func TestPatternMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		m := rng.Intn(6 * n)
		rows := make([]int32, m)
		cols := make([]int32, m)
		for k := 0; k < m; k++ {
			rows[k], cols[k] = int32(rng.Intn(n)), int32(rng.Intn(n))
		}
		scatter := make([]int32, m)
		p, err := NewPattern(n, rows, cols, scatter)
		if err != nil {
			t.Fatal(err)
		}
		irows, icols := make([]int, m), make([]int, m)
		for k := range rows {
			irows[k], icols[k] = int(rows[k]), int(cols[k])
		}
		wantPtr, wantIdx := referencePattern(n, irows, icols)
		if len(p.ColIdx) != len(wantIdx) {
			t.Fatalf("trial %d: NNZ %d, want %d", trial, len(p.ColIdx), len(wantIdx))
		}
		for i := range wantPtr {
			if p.RowPtr[i] != wantPtr[i] {
				t.Fatalf("trial %d: RowPtr[%d] = %d, want %d", trial, i, p.RowPtr[i], wantPtr[i])
			}
		}
		for i := range wantIdx {
			if p.ColIdx[i] != wantIdx[i] {
				t.Fatalf("trial %d: ColIdx[%d] = %d, want %d", trial, i, p.ColIdx[i], wantIdx[i])
			}
		}
		// The scatter map must send every input coordinate to the slot
		// holding exactly its (row, col).
		for k := 0; k < m; k++ {
			s := int(scatter[k])
			if p.ColIdx[s] != icols[k] {
				t.Fatalf("trial %d: scatter[%d] slot has col %d, want %d", trial, k, p.ColIdx[s], icols[k])
			}
			r := sort.SearchInts(p.RowPtr, s+1) - 1
			if r != irows[k] {
				t.Fatalf("trial %d: scatter[%d] slot in row %d, want %d", trial, k, r, irows[k])
			}
		}
	}
}

// TestPatternRejectsBadInput: mismatched coordinate lists and an entry
// outside the matrix are refused with the oracle's words, a scatter map
// of another length is refused, and so are an order and a coordinate
// count past int32.
func TestPatternRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		what       string
		n          int
		rows, cols []int
	}{
		{"mismatched coordinate lengths", 2, []int{0}, []int{0, 1}},
		{"out-of-range row", 2, []int{2}, []int{0}},
		{"negative column", 2, []int{0}, []int{-1}},
	} {
		rows, cols := make([]int32, len(c.rows)), make([]int32, len(c.cols))
		for k, r := range c.rows {
			rows[k] = int32(r)
		}
		for k, v := range c.cols {
			cols[k] = int32(v)
		}
		_, err := NewPattern(c.n, rows, cols, make([]int32, len(rows)))
		_, _, want := oraclePattern(c.n, c.rows, c.cols)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, want %v", c.what, err, want)
		}
	}
	if _, err := NewPattern(2, []int32{0}, []int32{0}, nil); !errors.Is(err, ErrDimension) {
		t.Errorf("a scatter map of another length: error %v", err)
	}
	if strconv.IntSize < 64 {
		t.Skip("int is 32 bits: no order or count past int32 to refuse")
	}
	past := int(int64(math.MaxInt32) + 1)
	if _, err := NewPattern(past, nil, nil, nil); !errors.Is(err, ErrDimension) {
		t.Errorf("order %d: error %v", past, err)
	}
	if err := fitsInt32(2, past); !errors.Is(err, ErrDimension) {
		t.Errorf("%d coordinates: error %v", past, err)
	}
	if err := fitsInt32(math.MaxInt32, math.MaxInt32); err != nil {
		t.Errorf("order and count of MaxInt32 refused: %v", err)
	}
}

// TestCSRFromTripletsRefusesCoordinatePastInt32: a triplet whose row does
// not fit in an int32 is outside the matrix, not wrapped into it.
func TestCSRFromTripletsRefusesCoordinatePastInt32(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int is 32 bits")
	}
	row := int(int64(1)<<32 + 1)
	_, err := NewCSRFromTriplets(2, []Triplet{{Row: row, Col: 0, Val: 1}})
	if want := outside(row, 0, 2); err == nil || err.Error() != want.Error() {
		t.Errorf("error %v, want %v", err, want)
	}
}

func TestPatternNewCSRSharesStructure(t *testing.T) {
	scatter := make([]int32, 4)
	p, err := NewPattern(3, []int32{0, 1, 2, 0}, []int32{0, 1, 2, 0}, scatter)
	if err != nil {
		t.Fatal(err)
	}
	if p.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (duplicate collapsed)", p.NNZ())
	}
	if scatter[0] != scatter[3] {
		t.Errorf("duplicate coordinates got distinct slots %d, %d", scatter[0], scatter[3])
	}
	a, b := p.NewCSR(), p.NewCSR()
	if &a.RowPtr[0] != &b.RowPtr[0] || &a.ColIdx[0] != &b.ColIdx[0] {
		t.Error("CSR instances do not share the pattern's structure")
	}
	a.Val[0] = 5
	if b.Val[0] != 0 {
		t.Error("CSR instances share values")
	}
	if p.RowNNZ(0) != 1 {
		t.Errorf("RowNNZ(0) = %d", p.RowNNZ(0))
	}
}

func TestDiagonalIntoMatchesDiagonal(t *testing.T) {
	m := poisson2D(4)
	want := m.Diagonal()
	got := NewVector(m.N)
	got.Fill(99)
	m.DiagonalInto(got)
	if MaxAbsDiff(got, want) != 0 {
		t.Error("DiagonalInto differs from Diagonal")
	}
	// A matrix with a structurally absent diagonal entry reads zero.
	z, err := NewCSRFromTriplets(2, []Triplet{{0, 1, 1}, {1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	d := z.DiagonalInto(nil)
	if d[0] != 0 || d[1] != 0 {
		t.Errorf("missing diagonal read as %v", d)
	}
}
