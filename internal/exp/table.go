// Package exp is the FEM-2 experiment harness: it regenerates, as tables,
// every evaluation the paper commits to — the simulations measuring
// storage, processing, and communication patterns of typical FEM-2
// applications, the quantitative requirement estimates of ref. [8], the
// three levels of parallelism from the conclusion, and the hardware
// requirements list (dynamic task initiation, window access, fault
// isolation, cluster scheduling, fast linear algebra).
//
// The paper itself contains no numbered tables or figures; each experiment
// (E1-E16, and DM, the design-method iteration) reproduces one of its
// textual evaluation commitments, and its function's doc comment says
// which.
package exp

import (
	"fmt"
	"strings"
)

// Table is one experiment's result in printable form.
type Table struct {
	// ID is the experiment identifier ("E1" ...).
	ID string
	// Title describes what the table shows.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes records the expected shape and any caveats.
	Notes string
}

// AddRow appends a row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", width[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", width[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			w := 0
			if i < len(width) {
				w = width[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}
