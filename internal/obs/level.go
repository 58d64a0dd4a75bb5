package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Level identifies one of the four FEM-2 virtual machine layers.  The
// design method judges each layer by what it costs in processing,
// storage and communication; the simulated machine counts those
// quantities into the registry as <level>.<counter> (the AUVMOps …
// ARCHCycles constants), and LevelReport renders them by level.
type Level int

// The four layers of virtual machine described in the paper, top to bottom.
const (
	// LevelAUVM is the application user's virtual machine (interactive
	// command language, model database, workspaces).
	LevelAUVM Level = iota
	// LevelNAVM is the numerical analyst's virtual machine (tasks,
	// arrays, windows, the distributed solvers).
	LevelNAVM
	// LevelSPVM is the system programmer's virtual machine (messages,
	// activation records, ready queues, heap storage).
	LevelSPVM
	// LevelARCH is the hardware layer (clusters of PEs, shared memory,
	// communication network).
	LevelARCH
)

var levelNames = [...]string{"AUVM", "NAVM", "SPVM", "ARCH"}

// String returns the conventional short name of the level.
func (l Level) String() string {
	if l >= 0 && int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Levels returns all levels in top-down order.
func Levels() []Level {
	return []Level{LevelAUVM, LevelNAVM, LevelSPVM, LevelARCH}
}

// prefix is the level's counter-name prefix: "auvm.", "navm.", …
func (l Level) prefix() string { return strings.ToLower(l.String()) + "." }

// LevelReport renders the per-level requirements table the FEM-2
// simulations were meant to produce: levels as rows in top-down order,
// and as columns every counter name that is non-zero at some level,
// sorted.  It reads only the counters under the four level prefixes.
func LevelReport(s Snapshot) string {
	var cols []string
	for _, m := range s.Counters {
		for _, l := range Levels() {
			if name, ok := strings.CutPrefix(m.Name, l.prefix()); ok && m.Value != 0 && !slices.Contains(cols, name) {
				cols = append(cols, name)
			}
		}
	}
	sort.Strings(cols)

	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "level")
	for _, k := range cols {
		fmt.Fprintf(&b, " %14s", k)
	}
	b.WriteByte('\n')
	for _, l := range Levels() {
		fmt.Fprintf(&b, "%-6s", l)
		for _, k := range cols {
			fmt.Fprintf(&b, " %14d", s.Counter(l.prefix()+k))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
