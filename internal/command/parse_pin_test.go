package command

import (
	"errors"
	"testing"

	"repro/internal/errs"
)

// parseErrorPins is every malformed line TestParseUsageErrors and
// TestParseJobUsageErrors list, plus one malformed form per slot of every
// verb, with the exact text Parse refuses it with; "" marks a line Parse
// accepts.  A change to any text is a change to the command language's
// user-visible surface, listed in CHANGES.md when it is made.
var parseErrorPins = []struct{ line, err string }{
	{"frobnicate", "usage: unknown command \"frobnicate\" (try help)"},
	{"ping now", "usage: ping"},
	{"version 2", "usage: version"},
	{"define wing", "usage: define structure <name>"},
	{"define structure", "usage: define structure <name>"},
	{"define structure a b", "usage: define structure <name>"},
	{"material 1 2 3", "usage: material <E> <nu> <thickness> <area>"},
	{"material x 2 3 4", "usage: numeric argument expected, got \"x\""},
	{"generate", "usage: generate grid|truss|bar"},
	{"generate grid g", "usage: generate grid <name> <nx> <ny> <w> <h> [clamp-left] [jitter <frac> <seed>]"},
	{"generate grid g a b c d", "usage: integer argument expected, got \"a\""},
	{"generate grid g 1 1 1 1 wat", "usage: unknown grid option \"wat\""},
	{"generate grid g 1 1 1 1 jitter 0.1", "usage: jitter <frac> <seed>"},
	{"generate grid g 1 1 1 1 jitter x 1", "usage: numeric argument expected, got \"x\""},
	{"generate grid g 1 1 1 1 jitter 0.1 x", "usage: integer argument expected, got \"x\""},
	{"generate truss t 1 2", "usage: generate truss <name> <bays> <baylen> <height>"},
	{"generate truss t a b c", "usage: integer argument expected, got \"a\""},
	{"generate bar b 1", "usage: generate bar <name> <segments> <length>"},
	{"generate bar b a b", "usage: integer argument expected, got \"a\""},
	{"generate sphere s 1", "usage: generate grid|truss|bar"},
	{"node m 1", "usage: node <model> <x> <y>"},
	{"node m a b", "usage: numeric argument expected, got \"a\""},
	{"element", "usage: element bar|cst"},
	{"element bar m 1", "usage: element bar <model> <n1> <n2>"},
	{"element bar m a b", "usage: integer argument expected, got \"a\""},
	{"element cst m 1 2", "usage: element cst <model> <n1> <n2> <n3>"},
	{"element wedge m 1 2", "usage: element bar|cst"},
	{"fix node m", "usage: fix node <model> <n>"},
	{"fix wat m 1", "usage: fix node|dof"},
	{"fix node m x", "usage: integer argument expected, got \"x\""},
	{"loadset m", "usage: loadset <model> <name>"},
	{"load m", "usage: load <model> <set> <dof> <value>"},
	{"load m ls x 1", "usage: integer argument expected, got \"x\""},
	{"load m ls endload x 1", "usage: numeric argument expected, got \"x\""},
	{"solve m", "usage: solve <model> <set> [method cg|cholesky|cholesky-env|cholesky-rcm|jacobi|sor] [precond none|jacobi|ssor] [parallel <p>] [substructures <k>]"},
	{"solve m ls method", "usage: method cg|cholesky|cholesky-env|cholesky-rcm|jacobi|sor"},
	{"solve m ls method gauss", "usage: unknown method \"gauss\" (have cg|cholesky|cholesky-env|cholesky-rcm|jacobi|sor)"},
	{"solve m ls parallel", "usage: parallel <p>"},
	{"solve m ls parallel 0", "usage: parallel wants a count of at least 1, got \"0\""},
	{"solve m ls parallel x", "usage: integer argument expected, got \"x\""},
	{"solve m ls substructures 0", "usage: substructures wants a count of at least 1, got \"0\""},
	{"solve m ls wat", "usage: unknown solve option \"wat\""},
	{"stresses", "usage: stresses <model>"},
	{"display model", "usage: display model|displacements|stresses <model>"},
	{"display wat m", "usage: unknown display \"wat\" (have model|displacements|stresses)"},
	{"store", "usage: store <model>"},
	{"retrieve", "usage: retrieve <name>"},
	{"delete", "usage: delete <name>"},
	{"list", "usage: list db|workspace"},
	{"list wat", "usage: unknown list \"wat\" (have db|workspace)"},
	{"submit", "usage: submit <command>"},
	{"submit # just a comment", "usage: submit <command>"},
	{"submit quit", "usage: \"quit\" cannot run as a job"},
	{"submit submit solve g l", "usage: \"submit\" cannot run as a job"},
	{"submit wait 1", "usage: \"wait\" cannot run as a job"},
	{"submit status 1", "usage: \"status\" cannot run as a job"},
	{"submit cancel 1", "usage: \"cancel\" cannot run as a job"},
	{"submit jobs", "usage: \"jobs\" cannot run as a job"},
	{"status", "usage: status <job>"},
	{"status one", "usage: job id \"one\""},
	{"status job-0", "usage: job id \"job-0\""},
	{"status -3", "usage: job id \"-3\""},
	{"wait", "usage: wait <job>"},
	{"cancel 1 2", "usage: cancel <job>"},
	{"jobs wat", "usage: unknown jobs option \"wat\""},
	{"jobs state limbo", "usage: unknown state \"limbo\" (have queued|running|done|failed|cancelled)"},
	{"jobs user", "usage: user <name>"},
	{"submit solve", "usage: solve <model> <set> [method cg|cholesky|cholesky-env|cholesky-rcm|jacobi|sor] [precond none|jacobi|ssor] [parallel <p>] [substructures <k>]"},
	{"help me", "usage: help"},
	{"stats now", "usage: stats"},
	{"quit now", "usage: quit"},
	{"exit now", "usage: quit"},
	{"define", "usage: define structure <name>"},
	{"define structures a", "usage: define structure <name>"},
	{"material 1 x 3 4", "usage: numeric argument expected, got \"x\""},
	{"material 1 2 x 4", "usage: numeric argument expected, got \"x\""},
	{"material 1 2 3 x", "usage: numeric argument expected, got \"x\""},
	{"material 1 2 3 4 5", "usage: material <E> <nu> <thickness> <area>"},
	{"material NaN 2 3 4", "usage: numeric argument expected, got \"NaN\""},
	{"generate grid", "usage: generate grid <name> <nx> <ny> <w> <h> [clamp-left] [jitter <frac> <seed>]"},
	{"generate grid g x 1 1 1", "usage: integer argument expected, got \"x\""},
	{"generate grid g 1 x 1 1", "usage: integer argument expected, got \"x\""},
	{"generate grid g 1 1 x 1", "usage: numeric argument expected, got \"x\""},
	{"generate grid g 1 1 1 x", "usage: numeric argument expected, got \"x\""},
	{"generate grid g 1 1 1 Inf", "usage: numeric argument expected, got \"Inf\""},
	{"generate grid g 1.5 1 1 1", "usage: integer argument expected, got \"1.5\""},
	{"generate grid g 1 1 1 1 clamp-left jitter 0.1", "usage: jitter <frac> <seed>"},
	{"generate grid g 1 1 1 1 jitter", "usage: jitter <frac> <seed>"},
	{"generate grid g 1 1 1 1 jitter NaN 1", "usage: numeric argument expected, got \"NaN\""},
	{"generate grid g 1 1 1 1 jitter 0.1 1.5", "usage: integer argument expected, got \"1.5\""},
	{"generate truss", "usage: generate truss <name> <bays> <baylen> <height>"},
	{"generate truss t", "usage: generate truss <name> <bays> <baylen> <height>"},
	{"generate truss t x 1 1", "usage: integer argument expected, got \"x\""},
	{"generate truss t 1 x 1", "usage: numeric argument expected, got \"x\""},
	{"generate truss t 1 1 x", "usage: numeric argument expected, got \"x\""},
	{"generate truss t 1 1 1 1", "usage: generate truss <name> <bays> <baylen> <height>"},
	{"generate bar", "usage: generate bar <name> <segments> <length>"},
	{"generate bar b x 1", "usage: integer argument expected, got \"x\""},
	{"generate bar b 1 x", "usage: numeric argument expected, got \"x\""},
	{"generate bar b 1 1 1", "usage: generate bar <name> <segments> <length>"},
	{"node", "usage: node <model> <x> <y>"},
	{"node m x 1", "usage: numeric argument expected, got \"x\""},
	{"node m 1 x", "usage: numeric argument expected, got \"x\""},
	{"node m 1 1 1", "usage: node <model> <x> <y>"},
	{"element bar", "usage: element bar <model> <n1> <n2>"},
	{"element bar m", "usage: element bar <model> <n1> <n2>"},
	{"element bar m x 1", "usage: integer argument expected, got \"x\""},
	{"element bar m 1 x", "usage: integer argument expected, got \"x\""},
	{"element bar m 1 2 3", "usage: element bar <model> <n1> <n2>"},
	{"element cst m x 1 2", "usage: integer argument expected, got \"x\""},
	{"element cst m 1 x 2", "usage: integer argument expected, got \"x\""},
	{"element cst m 1 2 x", "usage: integer argument expected, got \"x\""},
	{"element cst m 1 2 3 4", "usage: element cst <model> <n1> <n2> <n3>"},
	{"fix", "usage: fix node|dof"},
	{"fix node", "usage: fix node <model> <n>"},
	{"fix node m 1 2", "usage: fix node <model> <n>"},
	{"fix dof m", "usage: fix dof <model> <d>"},
	{"fix dof m x", "usage: integer argument expected, got \"x\""},
	{"fix dof m 1 2", "usage: fix dof <model> <d>"},
	{"loadset", "usage: loadset <model> <name>"},
	{"loadset m ls x", "usage: loadset <model> <name>"},
	{"load", "usage: load <model> <set> <dof> <value>"},
	{"load m ls", "usage: load <model> <set> <dof> <value>"},
	{"load m ls 1", "usage: load <model> <set> <dof> <value>"},
	{"load m ls 1 x", "usage: numeric argument expected, got \"x\""},
	{"load m ls 1 1 1", "usage: load <model> <set> <dof> <value>"},
	{"load m ls endload", "usage: load <model> <set> endload <fx> <fy>"},
	{"load m ls endload 1", "usage: load <model> <set> endload <fx> <fy>"},
	{"load m ls endload 1 x", "usage: numeric argument expected, got \"x\""},
	{"load m ls endload 1 1 1", "usage: load <model> <set> endload <fx> <fy>"},
	{"solve", "usage: solve <model> <set> [method cg|cholesky|cholesky-env|cholesky-rcm|jacobi|sor] [precond none|jacobi|ssor] [parallel <p>] [substructures <k>]"},
	{"solve m ls extra", "usage: unknown solve option \"extra\""},
	{"solve m ls precond", "usage: precond none|jacobi|ssor"},
	{"solve m ls precond wat", "usage: unknown precond \"wat\" (have none|jacobi|ssor)"},
	{"solve m ls substructures", "usage: substructures <k>"},
	{"solve m ls substructures x", "usage: integer argument expected, got \"x\""},
	{"solve m ls parallel -2", "usage: parallel wants a count of at least 1, got \"-2\""},
	{"solve m ls precond none", ""},
	{"solve m ls method cg precond", "usage: precond none|jacobi|ssor"},
	{"stresses m n", "usage: stresses <model>"},
	{"display", "usage: display model|displacements|stresses <model>"},
	{"display model m n", "usage: display model|displacements|stresses <model>"},
	{"display displacements", "usage: display model|displacements|stresses <model>"},
	{"store m n", "usage: store <model>"},
	{"retrieve a b", "usage: retrieve <name>"},
	{"delete a b", "usage: delete <name>"},
	{"list db x", "usage: list db|workspace"},
	{"snapshot", "usage: snapshot <file>"},
	{"snapshot a b", "usage: snapshot <file>"},
	{"restore", "usage: restore <file>"},
	{"restore a b", "usage: restore <file>"},
	{"submit help me", "usage: help"},
	{"submit frobnicate", "usage: unknown command \"frobnicate\" (try help)"},
	{"status 1 2", "usage: status <job>"},
	{"status job-x", "usage: job id \"job-x\""},
	{"status job-", "usage: job id \"job-\""},
	{"wait x", "usage: job id \"x\""},
	{"wait 0", "usage: job id \"0\""},
	{"cancel", "usage: cancel <job>"},
	{"cancel x", "usage: job id \"x\""},
	{"jobs state", "usage: state queued|running|done|failed|cancelled"},
	{"jobs state wat", "usage: unknown state \"wat\" (have queued|running|done|failed|cancelled)"},
	{"jobs user a state", "usage: state queued|running|done|failed|cancelled"},
	{"jobs bogus x", "usage: unknown jobs option \"bogus\""},
}

// TestParseErrorTextsPinned: Parse refuses each pinned line with exactly
// its pinned text, as a usage error and with no command beside it.
func TestParseErrorTextsPinned(t *testing.T) {
	for _, p := range parseErrorPins {
		cmd, err := Parse(p.line)
		switch {
		case p.err == "" && err != nil:
			t.Errorf("Parse(%q): %v, want it accepted", p.line, err)
		case p.err == "":
		case err == nil:
			t.Errorf("Parse(%q) accepted as %#v, want %q", p.line, cmd, p.err)
		case err.Error() != p.err || !errors.Is(err, errs.ErrUsage) || cmd != nil:
			t.Errorf("Parse(%q) = %#v, %q; want nil, %q (a usage error)", p.line, cmd, err, p.err)
		}
	}
}

// pinnedHelp is the help verb's text, pinned like the parse errors.
const pinnedHelp = `FEM-2 workstation commands:
  define structure <name>
  material <E> <nu> <thickness> <area>
  generate grid <name> <nx> <ny> <w> <h> [clamp-left] [jitter <frac> <seed>]
  generate truss <name> <bays> <baylen> <height>
  generate bar <name> <segments> <length>
  node <model> <x> <y>
  element bar <model> <n1> <n2>
  element cst <model> <n1> <n2> <n3>
  fix node <model> <n>
  fix dof <model> <d>
  loadset <model> <name>
  load <model> <set> <dof> <value>
  load <model> <set> endload <fx> <fy>   (grid models)
  solve <model> <set> [method cg|cholesky|cholesky-env|cholesky-rcm|jacobi|sor] [precond none|jacobi|ssor] [parallel <p>] [substructures <k>]
  stresses <model>
  display model|displacements|stresses <model>
  store <model>
  retrieve <name>
  delete <name>
  list db|workspace
  snapshot <file>                        (save the whole workspace)
  restore <file>                         (load a saved workspace)
  submit <command>                       (run asynchronously, returns a job id)
  status <job>
  wait <job>
  cancel <job>
  jobs [user <name>] [state queued|running|done|failed|cancelled]
  ping
  version
  stats
  help
  quit`

// TestHelpTextPinned: the help verb displays exactly the pinned text.
func TestHelpTextPinned(t *testing.T) {
	if got := (HelpResult{}).String(); got != pinnedHelp {
		t.Errorf("help text changed:\n%s\n--- pinned\n%s", got, pinnedHelp)
	}
}
