package command_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/auvm"
	"repro/internal/command"
	"repro/internal/store"
)

// TestDoHeldServesEveryVerb: auvm.Session.DoHeld, whose type switch is
// the one per-verb list outside the verb table (command cannot import
// the interpreter), has a case for every row.  Each row's zero command
// runs through it; whatever else it answers, it must not be the switch's
// "unknown command type".  The test lives here, in command's external
// test package, because only this package's tests can read the rows.
func TestDoHeldServesEveryVerb(t *testing.T) {
	s := auvm.NewSession("alice", auvm.NewDatabaseOn(store.NewMemStore(), store.BackendMem))
	for _, cmd := range command.ZeroCommands() {
		_, err := s.DoHeld(context.Background(), cmd)
		if err != nil && strings.Contains(err.Error(), "unknown command type") {
			t.Errorf("%s: %v", command.Verb(cmd), err)
		}
	}
}
