package command

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/errs"
)

// drawNames are the names drawCommand writes: plain ones, and ones that
// spell a verb, a word, an option or a number, which a parser keyed on
// position must still read as names.
var drawNames = []string{"g", "plate", "wing-2", "a_b", "x1", "ÜTF", "method", "endload", "clamp-left",
	"state", "job-3", "1e9", "NaN", "#c", "exit", "submit"}

// drawCommand draws a command of row v: every value from its slot's
// kind, every option set or left at its zero at even odds, and a nested
// command from a row that may run as a job.  It counts each row and each
// option it sets in reached.
func drawCommand(rng *rand.Rand, v *verb, reached map[string]int) Command {
	reached[v.wire]++
	c := reflect.New(reflect.TypeOf(v.cmd)).Elem()
	for _, s := range v.head {
		if s.kind != word {
			drawValue(rng, s, c.Field(s.field), reached)
		}
	}
	for _, o := range v.opts {
		if rng.Intn(2) == 0 {
			continue
		}
		reached[v.wire+" "+o.kw]++
		for _, s := range o.slots {
			drawValue(rng, s, c.Field(s.field), reached)
		}
	}
	return c.Interface().(Command)
}

// drawValue sets f to a value of s's kind.
func drawValue(rng *rand.Rand, s slot, f reflect.Value, reached map[string]int) {
	switch s.kind {
	case name:
		f.SetString(drawNames[rng.Intn(len(drawNames))])
	case enum:
		f.SetString(s.names[rng.Intn(len(s.names))])
	case integer:
		switch rng.Intn(4) {
		case 0:
			f.SetInt(int64(rng.Intn(10)))
		case 1:
			f.SetInt(-rng.Int63n(1 << 20))
		case 2:
			f.SetInt(math.MaxInt64)
		default:
			f.SetInt(math.MinInt64)
		}
	case count:
		f.SetInt(1 + rng.Int63n(64))
	case jobID:
		if rng.Intn(4) == 0 {
			f.SetInt(math.MaxInt64)
		} else {
			f.SetInt(1 + rng.Int63n(1000))
		}
	case number:
		x := []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-300, 5e-324, math.MaxFloat64, -1003.5, 200017.25}[rng.Intn(10)]
		if rng.Intn(2) == 0 {
			x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		f.SetFloat(x)
	case flag:
		f.SetBool(true)
	case nested:
		var inner *verb
		for inner == nil || inner.props.Has(NotAJob) {
			inner = verbs[rng.Intn(len(verbs))]
		}
		f.Set(reflect.ValueOf(drawCommand(rng, inner, reached)))
	}
}

// TestRoundTrip: Parse(cmd.String()) reproduces the command, and String
// writes what the per-verb String methods it replaced wrote, over
// commands drawn from every row's signature; the draw reaches every verb
// and every keyword option.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	reached := map[string]int{}
	for _, v := range verbs {
		for range 200 {
			cmd := drawCommand(rng, v, reached)
			line := cmd.String()
			if want := oracleString(cmd); line != want {
				t.Fatalf("%#v.String() = %q, the per-verb method wrote %q", cmd, line, want)
			}
			got, err := Parse(line)
			if err != nil {
				t.Fatalf("Parse(%#v.String() = %q): %v", cmd, line, err)
			}
			if !reflect.DeepEqual(got, cmd) {
				t.Fatalf("round trip via %q: got %#v, want %#v", line, got, cmd)
			}
		}
	}
	for _, v := range verbs {
		if reached[v.wire] == 0 {
			t.Errorf("verb %s never drawn", v.wire)
		}
		for _, o := range v.opts {
			if reached[v.wire+" "+o.kw] == 0 {
				t.Errorf("option %s of %s never set", o.kw, v.wire)
			}
		}
	}
}

// textChanges lists each refusal whose text the verb table changed, as
// CHANGES.md records them: a regular expression over the parser's text
// it replaced, and one over the text the rows generate instead, where $n
// stands for the old text's nth group.  A line the old parser accepted,
// help, quit or exit with arguments after the verb, is refused now with
// the verb's signature (the last two rows; under submit, quit's
// arguments are refused before quit is).
var textChanges = []struct{ old, new string }{
	{`generate grid\|truss\|bar <name> \.\.\.`, `generate grid\|truss\|bar|generate (grid|truss|bar) <name> .*`},
	{`generate (grid|truss|bar): numeric arguments required`, `(integer|numeric) argument expected, got ".*"`},
	{`jitter (fraction|seed) ".*"`, `(integer|numeric) argument expected, got ".*"`},
	{`node coordinates must be numeric`, `numeric argument expected, got ".*"`},
	{`element bar\|cst <model> <nodes\.\.\.>`, `element bar\|cst|element (bar|cst) <model> .*`},
	{`fix node\|dof <model> <index>`, `fix node\|dof|fix (node <model> <n>|dof <model> <d>)`},
	{`fix index ".*"`, `integer argument expected, got ".*"|fix node\|dof`},
	{`load dof/value must be numeric`, `(integer|numeric) argument expected, got ".*"|load <model> <set> endload <fx> <fy>`},
	{`endload forces must be numeric`, `numeric argument expected, got ".*"`},
	{`load <model> <set> <dof> <value>`, `load <model> <set> endload <fx> <fy>`},
	{`solve <model> <set> \[method <backend>\] \[precond <p>\] (.*)`, `solve <model> <set> \[method [a-z|-]+\] \[precond [a-z|]+\] $1`},
	{`(parallel) worker count ".*"`, `$1 wants a count of at least 1, got ".*"|integer argument expected, got ".*"`},
	{`substructure count ".*"`, `substructures wants a count of at least 1, got ".*"|integer argument expected, got ".*"`},
	{`display model\|displacements\|stresses`, `unknown display ".*" \(have model\|displacements\|stresses\)`},
	{`list db\|workspace`, `unknown list ".*" \(have db\|workspace\)`},
	{`precond jacobi\|ssor`, `precond none\|jacobi\|ssor`},
	{`unknown preconditioner (".*") \(have jacobi\|ssor\)`, `unknown precond $1 \(have none\|jacobi\|ssor\)`},
	{`unknown job state (".*" \(have .*\))`, `unknown state $1`},
	{`jobs (user <name>|state .*)`, `$1`},
	{`accepted: help`, `help`},
	{`accepted: quit|"quit" cannot run as a job`, `quit`},
}

// changedText reports whether the texts the two parsers gave one line
// are a change textChanges lists.  An accepted line's text is "accepted:
// " and the verb it parsed to.
func changedText(old, new string) bool {
	old, new = strings.TrimPrefix(old, "usage: "), strings.TrimPrefix(new, "usage: ")
	for _, c := range textChanges {
		re := regexp.MustCompile(`^(?:` + c.old + `)$`)
		m := re.FindStringSubmatchIndex(old)
		if m == nil {
			continue
		}
		want := c.new
		for i := 1; 2*i < len(m); i++ {
			want = strings.ReplaceAll(want, fmt.Sprintf("$%d", i), regexp.QuoteMeta(old[m[2*i]:m[2*i+1]]))
		}
		if regexp.MustCompile(`^(?:` + want + `)$`).MatchString(new) {
			return true
		}
	}
	return false
}

// FuzzParse: for any line, the table-driven Parse and the parser it
// replaced (parse_oracle_test.go) return reflect.DeepEqual commands, or
// both refuse with a usage error in the same words but for the changes
// textChanges lists — among them the one acceptance that became a
// refusal, help, quit or exit with trailing arguments.
func FuzzParse(f *testing.F) {
	for _, p := range parseErrorPins {
		f.Add(p.line)
	}
	rng := rand.New(rand.NewSource(6))
	for _, v := range verbs {
		for range 4 {
			f.Add(drawCommand(rng, v, map[string]int{}).String())
		}
	}
	for _, line := range []string{"", "# note", "QUIT", "Exit", "help", "submit SOLVE g l", "solve g l method cg method sor",
		"generate grid g 1 1 1 1 clamp-left clamp-left", "load endload x endload 1 2", "jobs user state state done"} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, err := Parse(line)
		want, oerr := oracleParse(line)
		switch {
		case err == nil && oerr == nil:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Parse(%q) = %#v, the old parser's %#v", line, got, want)
			}
			return
		case err != nil && !errors.Is(err, errs.ErrUsage):
			t.Fatalf("Parse(%q): %v is not a usage error", line, err)
		case err != nil && got != nil:
			t.Fatalf("Parse(%q) returned %#v beside its error", line, got)
		}
		text, otext := "", ""
		if err != nil {
			text = err.Error()
		}
		switch {
		case oerr != nil:
			otext = oerr.Error()
		case reflect.DeepEqual(Value(want), Help{}) || reflect.DeepEqual(want, Submit{Cmd: Help{}}):
			otext = "accepted: help"
		case reflect.DeepEqual(want, Quit{}):
			otext = "accepted: quit"
		default:
			otext = "accepted"
		}
		if text != otext && !changedText(otext, text) {
			t.Fatalf("Parse(%q): %q (%#v), the old parser %q (%#v)", line, text, got, otext, want)
		}
	})
}
