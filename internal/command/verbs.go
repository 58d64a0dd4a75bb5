package command

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/errs"
	"repro/internal/linalg"
)

// The command language is the table verbs: one row per verb, holding its
// wire name, its struct, its properties and its signature.  A signature
// is the verb's help line, and Parse, every command's String, the help
// text and the wire codec read the rows; nothing else spells a verb.
//
// A signature is a sequence of tokens separated by spaces, a bracketed
// option counting as one token:
//
//	word        a word of the line ("generate", "grid", "endload")
//	<x>         a value, bound to the struct's next field
//	a|b|c       a value that is one of the names given, bound likewise
//	[kw]        a flag, bound to the next field, a bool
//	[kw <x> …]  a keyword option whose values, <x> or a|b, bind likewise
//
// The fields are bound in declaration order, every one of them, and a
// value's kind is its field's: a string is a name (or one of the names
// given); an int an integer, and inside an option a count of at least 1,
// since an absent option is its zero; an int64 an integer, and for <job>
// a job id, written with or without the job- prefix results render; a
// float64 a finite number; a Command the rest of the line, a nested
// command.  The head's first <model> or <name> names the model the
// command touches (ModelOf).  init checks every row against its struct.

// Props is the set of policy-relevant properties of one verb.  Every
// per-verb decision outside the interpreter — what a draining, degraded
// or follower server refuses, what a client may replay, what the
// scheduler queues — is derived from these flags through PropsOf, so a
// verb states its nature once, on its verbs row.
type Props uint8

const (
	// MutatesWorkspace: the verb creates or changes state in the
	// session's workspace (models, load sets, solutions, material).
	MutatesWorkspace Props = 1 << iota
	// WritesStore: the verb writes the shared store — the model
	// database or the job journal.
	WritesStore
	// LeaderOnly: in a cluster the verb is served only by the
	// leaseholder.  Every state-changing verb is, except retrieve, which
	// changes only the local workspace from a store read; cancel is,
	// because every job lives on the leader.
	LeaderOnly
	// Replayable: idempotent and independent of workspace state, so a
	// client may repeat it on a fresh connection after a link failure.
	Replayable
	// Blocks: the verb waits for something else to finish by contract,
	// so no per-request deadline applies on either side of the wire.
	Blocks
	// DetachesContext: the request's context outlives the reply (as the
	// submitted job's context), so a server-side deadline on the request
	// would cancel the work it started.
	DetachesContext
	// NotAJob: the verb cannot itself run under submit (job control, and
	// quit).
	NotAJob
	// Heavy: long-running, so as a job it is queued for the scheduler's
	// workers instead of running inline on the front-end goroutine.
	Heavy
)

// Has reports whether p carries any of the flags in q.
func (p Props) Has(q Props) bool { return p&q != 0 }

// RefusedDraining reports whether a draining server refuses the verb:
// everything that would create or change state.  Job control, reads and
// health verbs keep answering so clients can collect results; snapshot
// is a read (it serializes the workspace to a server-side file) and
// stays allowed — the natural last act before a shutdown.
func (p Props) RefusedDraining() bool { return p.Has(MutatesWorkspace | WritesStore) }

// RefusedDegraded reports whether a server whose store degraded to
// read-only refuses the verb: what drain refuses, minus what a follower
// — the other read-only view of the store — still serves.  That spares
// retrieve (the workspace is fine and it only reads the store) and
// leaves cancel working (job state is in memory).
func (p Props) RefusedDegraded() bool { return p.RefusedDraining() && p.Has(LeaderOnly) }

// ServerTimeoutExempt reports the verbs a server's RequestTimeout must
// not bound: wait blocks by contract, and submit's context becomes the
// queued job's — a deadline would cancel the job right after the submit
// answered.
func (p Props) ServerTimeoutExempt() bool { return p.Has(Blocks | DetachesContext) }

// verbs is the command language, one row per verb in the order the help
// text lists them.
var verbs = []*verb{
	{wire: "define", cmd: Define{}, props: MutatesWorkspace | LeaderOnly, sig: "define structure <name>"},
	{wire: "material", cmd: SetMaterial{}, props: MutatesWorkspace | LeaderOnly, sig: "material <E> <nu> <thickness> <area>"},
	{wire: "generate-grid", cmd: GenerateGrid{}, props: MutatesWorkspace | LeaderOnly,
		sig: "generate grid <name> <nx> <ny> <w> <h> [clamp-left] [jitter <frac> <seed>]"},
	{wire: "generate-truss", cmd: GenerateTruss{}, props: MutatesWorkspace | LeaderOnly, sig: "generate truss <name> <bays> <baylen> <height>"},
	{wire: "generate-bar", cmd: GenerateBar{}, props: MutatesWorkspace | LeaderOnly, sig: "generate bar <name> <segments> <length>"},
	{wire: "node", cmd: AddNode{}, props: MutatesWorkspace | LeaderOnly, sig: "node <model> <x> <y>"},
	{wire: "element-bar", cmd: AddBar{}, props: MutatesWorkspace | LeaderOnly, sig: "element bar <model> <n1> <n2>"},
	{wire: "element-cst", cmd: AddCST{}, props: MutatesWorkspace | LeaderOnly, sig: "element cst <model> <n1> <n2> <n3>"},
	{wire: "fix-node", cmd: FixNode{}, props: MutatesWorkspace | LeaderOnly, sig: "fix node <model> <n>"},
	{wire: "fix-dof", cmd: FixDOF{}, props: MutatesWorkspace | LeaderOnly, sig: "fix dof <model> <d>"},
	{wire: "loadset", cmd: DefineLoadSet{}, props: MutatesWorkspace | LeaderOnly, sig: "loadset <model> <name>"},
	{wire: "load", cmd: AddLoad{}, props: MutatesWorkspace | LeaderOnly, sig: "load <model> <set> <dof> <value>"},
	{wire: "endload", cmd: EndLoad{}, props: MutatesWorkspace | LeaderOnly, sig: "load <model> <set> endload <fx> <fy>", note: "(grid models)"},
	{wire: "solve", cmd: Solve{}, props: MutatesWorkspace | LeaderOnly | Heavy,
		sig: "solve <model> <set> [method " + alternatives(linalg.Backends()) + "] [precond none|" +
			alternatives(linalg.Preconds()) + "] [parallel <p>] [substructures <k>]"},
	{wire: "stresses", cmd: Stresses{}, props: MutatesWorkspace | LeaderOnly, sig: "stresses <model>"},
	{wire: "display", cmd: Display{}, sig: "display model|displacements|stresses <model>"},
	{wire: "store", cmd: Store{}, props: WritesStore | LeaderOnly, sig: "store <model>"},
	{wire: "retrieve", cmd: Retrieve{}, props: MutatesWorkspace, sig: "retrieve <name>"},
	{wire: "delete", cmd: Delete{}, props: WritesStore | LeaderOnly, sig: "delete <name>"},
	{wire: "list", cmd: List{}, sig: "list db|workspace"},
	{wire: "snapshot", cmd: Snapshot{}, sig: "snapshot <file>", note: "(save the whole workspace)"},
	{wire: "restore", cmd: Restore{}, props: MutatesWorkspace | LeaderOnly, sig: "restore <file>", note: "(load a saved workspace)"},
	{wire: "submit", cmd: Submit{}, props: MutatesWorkspace | WritesStore | LeaderOnly | DetachesContext | NotAJob,
		sig: "submit <command>", note: "(run asynchronously, returns a job id)"},
	{wire: "status", cmd: Status{}, props: Replayable | NotAJob, sig: "status <job>"},
	{wire: "wait", cmd: Wait{}, props: Replayable | Blocks | NotAJob, sig: "wait <job>"},
	{wire: "cancel", cmd: Cancel{}, props: LeaderOnly | NotAJob, sig: "cancel <job>"},
	{wire: "jobs", cmd: Jobs{}, props: Replayable | NotAJob, sig: "jobs [user <name>] [state " + alternatives(JobStates()) + "]"},
	{wire: "ping", cmd: Ping{}, props: Replayable, sig: "ping"},
	{wire: "version", cmd: Version{}, props: Replayable, sig: "version"},
	{wire: "stats", cmd: Stats{}, props: Replayable, sig: "stats"},
	{wire: "help", cmd: Help{}, sig: "help"},
	{wire: "quit", cmd: Quit{}, props: NotAJob, sig: "quit", alias: "exit"},
}

// verb is one row of the command language.
type verb struct {
	wire  string  // the wire verb name, also the key of per-verb metrics
	cmd   Command // the verb's zero command: its struct
	props Props
	sig   string // the signature, which is the help line
	note  string // an aside the help line carries after the signature
	alias string // another first word for the verb

	// Compiled from sig by init.
	head  []slot   // sig's words and values up to its options, in order
	opts  []option // sig's bracketed options, in order
	last  string   // the last word of sig, which names its options
	model int      // the field of head's first <model> or <name>, -1 if none
}

// kind is what a slot reads and writes.
type kind uint8

const (
	word    kind = iota // a fixed word of the line
	name                // a whitespace-free token
	enum                // one of the slot's names
	integer             // an int or int64
	count               // an int of at least 1
	number              // a finite float64
	jobID               // a job id of at least 1, job- prefix optional
	flag                // a bool, true when its option is present
	nested              // the rest of the line, a command
)

// slot is one token of a signature: a word, or a value bound to a field.
type slot struct {
	kind  kind
	text  string   // the word, or the value's name for messages
	names []string // an enum's names
	field int      // the struct field a value is bound to
}

// option is one bracketed keyword option of a signature.
type option struct {
	kw    string
	text  string // the signature token without its brackets
	slots []slot // one flag slot, or the values that follow kw
}

// usage is the shared syntax-error constructor.
var usage = errs.Usage

// alternatives writes names as a signature writes a value that is one of
// them: a|b|c.
func alternatives[S ~string](names []S) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(string(n))
	}
	return b.String()
}

var (
	// byWord lists the rows a line's first word selects.
	byWord = map[string][]*verb{}
	// helpText is the command-language summary the help verb displays:
	// each row's help line.
	helpText string
)

func init() {
	help := []string{"FEM-2 workstation commands:"}
	for _, v := range verbs {
		v.compile()
		first := v.head[0].text
		byWord[first] = append(byWord[first], v)
		if v.alias != "" {
			byWord[v.alias] = append(byWord[v.alias], v)
		}
		if v.note != "" {
			help = append(help, fmt.Sprintf("%-36s   %s", v.sig, v.note))
		} else {
			help = append(help, v.sig)
		}
	}
	helpText = strings.Join(help, "\n  ")
}

// compile reads v's signature into its words, values and options, each
// value bound to the next field of v's struct, and panics where the two
// disagree.
func (v *verb) compile() {
	typ := reflect.TypeOf(v.cmd)
	bad := func(format string, a ...any) {
		panic(fmt.Sprintf("command: signature %q: ", v.sig) + fmt.Sprintf(format, a...))
	}
	field := 0
	// bind binds a value, written text ("" for a flag), to the next field;
	// label names it in refusals.
	bind := func(text, label string, inOption bool) slot {
		if field == typ.NumField() {
			bad("more values than %v has fields", typ)
		}
		f := typ.Field(field)
		s := slot{text: label, field: field}
		field++
		k := f.Type.Kind()
		switch {
		case text == "" && k == reflect.Bool:
			s.kind = flag
		case strings.Contains(text, "|") && k == reflect.String:
			s.kind, s.names = enum, strings.Split(text, "|")
		case !strings.HasPrefix(text, "<") || !strings.HasSuffix(text, ">"):
			bad("%q bound to %v.%s, a %v", text, typ, f.Name, f.Type)
		case k == reflect.Interface:
			s.kind = nested
		case k == reflect.String:
			s.kind = name
		case k == reflect.Int && inOption:
			s.kind = count
		case k == reflect.Int64 && text == "<job>":
			s.kind = jobID
		case k == reflect.Int || k == reflect.Int64:
			s.kind = integer
		case k == reflect.Float64:
			s.kind = number
		default:
			bad("%s bound to %v.%s, a %v", text, typ, f.Name, f.Type)
		}
		return s
	}
	head, opts, _ := strings.Cut(v.sig, " [")
	v.model = -1
	for _, tok := range strings.Fields(head) {
		if (tok == "<model>" || tok == "<name>") && v.model < 0 {
			v.model = field
		}
		if strings.HasPrefix(tok, "<") || strings.Contains(tok, "|") {
			v.head = append(v.head, bind(tok, v.head[0].text, false))
		} else {
			v.head = append(v.head, slot{kind: word, text: tok})
			v.last = tok
		}
	}
	for _, text := range strings.Split(strings.TrimSuffix(opts, "]"), "] [") {
		ws := strings.Fields(text)
		if len(ws) == 0 {
			continue
		}
		if len(ws) == 1 {
			ws = append(ws, "") // a flag, bound to a bool
		}
		o := option{kw: ws[0], text: text}
		for _, w := range ws[1:] {
			o.slots = append(o.slots, bind(w, o.kw, true))
		}
		v.opts = append(v.opts, o)
	}
	if field != typ.NumField() {
		bad("binds %d of the %d fields of %v", field, typ.NumField(), typ)
	}
}

// Parse lexes and parses one command line into its typed Command.  A
// blank line or a # comment parses to (nil, nil).  Syntax errors wrap
// errs.ErrUsage; all name/object resolution is deferred to the interpreter.
func Parse(line string) (Command, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil, nil
	}
	fields[0] = strings.ToLower(fields[0])
	rows := byWord[fields[0]]
	if len(rows) == 0 {
		return nil, usage("unknown command %q (try help)", fields[0])
	}
	// The row whose words the line carries, the one with the most words
	// when several do ("load … endload" over "load").
	var row *verb
	best := -1
	for _, v := range rows {
		if n, ok := v.wordsMatch(fields); ok && n > best {
			row, best = v, n
		}
	}
	if row == nil && len(rows) == 1 {
		row = rows[0]
	}
	if row == nil {
		seconds := make([]string, len(rows))
		for i, v := range rows {
			seconds[i] = v.head[1].text
		}
		return nil, usage("%s %s", fields[0], strings.Join(seconds, "|"))
	}
	return row.parse(fields)
}

// wordsMatch reports whether every word of v's signature after the first
// is in place in fields, and how many words v has.
func (v *verb) wordsMatch(fields []string) (int, bool) {
	n := 0
	for i, s := range v.head[1:] {
		if s.kind == word {
			if i+1 >= len(fields) || fields[i+1] != s.text {
				return 0, false
			}
			n++
		}
	}
	return n, true
}

// parse binds fields, a line v's first word selected, to a new command.
func (v *verb) parse(fields []string) (Command, error) {
	n := len(v.head)
	if len(fields) < n || len(fields) > n && len(v.opts) == 0 && v.head[n-1].kind != nested {
		return nil, usage("%s", v.sig)
	}
	c := reflect.New(reflect.TypeOf(v.cmd)).Elem()
	for i, s := range v.head[1:] {
		tok := fields[i+1]
		switch s.kind {
		case word:
			if tok != s.text {
				return nil, usage("%s", v.sig)
			}
		case nested:
			inner, err := Parse(strings.Join(fields[i+1:], " "))
			if err != nil {
				return nil, err
			}
			if inner == nil {
				return nil, usage("%s", v.sig)
			}
			if err := Submittable(inner); err != nil {
				return nil, err
			}
			c.Field(s.field).Set(reflect.ValueOf(inner))
			return c.Interface().(Command), nil
		default:
			if err := s.set(c.Field(s.field), tok); err != nil {
				return nil, err
			}
		}
	}
	for rest := fields[n:]; len(rest) > 0; {
		i := slices.IndexFunc(v.opts, func(o option) bool { return o.kw == rest[0] })
		if i < 0 {
			return nil, usage("unknown %s option %q", v.last, rest[0])
		}
		o := v.opts[i]
		if o.slots[0].kind == flag {
			c.Field(o.slots[0].field).SetBool(true)
			rest = rest[1:]
			continue
		}
		if len(rest) <= len(o.slots) {
			return nil, usage("%s", o.text)
		}
		for j, s := range o.slots {
			if err := s.set(c.Field(s.field), rest[1+j]); err != nil {
				return nil, err
			}
		}
		rest = rest[1+len(o.slots):]
	}
	return c.Interface().(Command), nil
}

// set parses tok as s's value into f.
func (s slot) set(f reflect.Value, tok string) error {
	switch s.kind {
	case name:
		f.SetString(tok)
	case enum:
		if !slices.Contains(s.names, tok) {
			return usage("unknown %s %q (have %s)", s.text, tok, strings.Join(s.names, "|"))
		}
		f.SetString(tok)
	case integer, count:
		n, err := strconv.ParseInt(tok, 10, f.Type().Bits())
		if err != nil {
			return usage("integer argument expected, got %q", tok)
		}
		if s.kind == count && n < 1 {
			return usage("%s wants a count of at least 1, got %q", s.text, tok)
		}
		f.SetInt(n)
	case jobID:
		id, err := strconv.ParseInt(strings.TrimPrefix(tok, "job-"), 10, 64)
		if err != nil || id < 1 {
			return usage("job id %q", tok)
		}
		f.SetInt(id)
	case number:
		x, err := parseFinite(tok)
		if err != nil {
			return usage("numeric argument expected, got %q", tok)
		}
		f.SetFloat(x)
	}
	return nil
}

// parseFinite parses one numeric argument.  NaN and the infinities are
// refused like any other non-number: no command means anything with one,
// and JSON cannot carry them, so a line the local interpreter accepted
// would fail over the wire.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = strconv.ErrSyntax
	}
	return v, err
}

// line renders a command's canonical command line from its row.  Every
// submit reply carries one, so it is appended into a stack buffer and
// allocates only the string.
func line(c Command) string {
	var buf [64]byte
	b := buf[:0]
	for cv := reflect.ValueOf(c); cv.IsValid(); {
		b, cv = appendLine(b, cv)
	}
	return string(b)
}

// appendLine appends the canonical command line of cv, a command, to b:
// its words and values in signature order, then each option that is set.
// A nested command is returned, not appended, for the caller to append
// next.
func appendLine(b []byte, cv reflect.Value) ([]byte, reflect.Value) {
	bc := cmdByType[cv.Type()]
	if bc == nil {
		return b, reflect.Value{}
	}
	var next reflect.Value
	for i, s := range bc.row.head {
		if i > 0 {
			b = append(b, ' ')
		}
		switch s.kind {
		case word:
			b = append(b, s.text...)
		case nested:
			if f := cv.Field(s.field); !f.IsNil() {
				next = reflect.Indirect(f.Elem())
			}
		default:
			b = s.appendValue(b, cv.Field(s.field))
		}
	}
	for _, o := range bc.row.opts {
		if !o.isSet(cv) {
			continue
		}
		b = append(append(b, ' '), o.kw...)
		for _, s := range o.slots {
			if s.kind != flag {
				b = s.appendValue(append(b, ' '), cv.Field(s.field))
			}
		}
	}
	return b, next
}

// isSet reports whether any of o's fields in cv holds a value that makes
// the option present.
func (o option) isSet(cv reflect.Value) bool {
	for _, s := range o.slots {
		if s.isSet(cv.Field(s.field)) {
			return true
		}
	}
	return false
}

// isSet reports whether f holds a value that makes its option present.
func (s slot) isSet(f reflect.Value) bool {
	switch s.kind {
	case flag:
		return f.Bool()
	case count:
		return f.Int() > 0
	case number:
		return f.Float() != 0
	case integer:
		return f.Int() != 0
	default:
		return f.String() != ""
	}
}

// appendValue appends f, s's value, in the form s parses.
func (s slot) appendValue(b []byte, f reflect.Value) []byte {
	switch s.kind {
	case integer, count:
		return strconv.AppendInt(b, f.Int(), 10)
	case jobID:
		return strconv.AppendInt(append(b, "job-"...), f.Int(), 10)
	case number:
		return strconv.AppendFloat(b, f.Float(), 'g', -1, 64)
	default:
		return append(b, f.String()...)
	}
}
