package command

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/codec"
)

// The typed command AST is also the wire schema: a Command or Result
// crosses a connection as a JSON envelope tagging the verb (or result
// kind) plus the struct's own fields.  MarshalCommand/UnmarshalCommand
// and MarshalResult/UnmarshalResult are the codec; both directions are
// strict (unknown fields and unknown kinds are errors), and a decoded
// value round-trips to the identical struct, so a network client's
// Result.String() rendering is byte-identical to local execution.
//
// Which path runs when.  Encoding always goes through internal/codec: one
// append pass writes envelope and body from the field plan of the verb's
// struct, byte for byte what encoding/json wrote before it.  Decoding looks
// at the bytes: an envelope in canonical form (docs/protocol.md — what the
// encoder writes, strings without escapes) is read in one pass by the same
// plans; any other input goes down the general path, generalCommand and
// generalResult, which is encoding/json with DisallowUnknownFields at each
// nesting level and defines what is accepted and every error text.  The
// canonical decoder never rejects, it only declines.

// Release is the FEM-2 software release the version verb reports.
const Release = "0.9.0"

// ProtocolVersion is the wire protocol revision.  A client and server
// must agree on it exactly; the version verb and the connection
// handshake both carry it.  Revision 2 added the snapshot/restore
// verbs, the Storage field on version replies, and the storage field
// of the Welcome envelope.  Revision 3 added the "degraded" error code
// and the health (Degraded) fields on ping/version replies and the
// Welcome envelope.  Revision 4 added the stats verb and the optional
// uptime_s fields on ping/version replies and the Welcome envelope;
// the uptime fields are JSON-only (never rendered), so every healthy
// rev-3 rendering is byte-identical under rev 4.  Revision 5 added the
// "not-leader" error code (with its leader field) and the optional
// role/leader fields on the Welcome envelope; all are JSON-only and
// omitted outside a cluster, so every single-daemon rev-4 exchange is
// byte-identical under rev 5.  Revision 6 added the handshake's notify
// field: job notifications go only to a connection that set it.
const ProtocolVersion = 6

// cmdEnvelope is the wire form of one Command.  Submit nests its wrapped
// command as another envelope under "cmd"; every other verb carries its
// struct fields under "body".
type cmdEnvelope struct {
	Verb string          `json:"verb"`
	Body json.RawMessage `json:"body,omitempty"`
	Cmd  json.RawMessage `json:"cmd,omitempty"`
}

// resEnvelope is the wire form of one Result.
type resEnvelope struct {
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body,omitempty"`
}

// resultKinds maps wire result kinds onto result struct types.
var resultKinds = map[string]reflect.Type{
	"help":           reflect.TypeOf(HelpResult{}),
	"ping":           reflect.TypeOf(PingResult{}),
	"version":        reflect.TypeOf(VersionResult{}),
	"quit":           reflect.TypeOf(QuitResult{}),
	"define":         reflect.TypeOf(DefineResult{}),
	"material":       reflect.TypeOf(MaterialResult{}),
	"generate":       reflect.TypeOf(GenerateResult{}),
	"node":           reflect.TypeOf(NodeResult{}),
	"element":        reflect.TypeOf(ElementResult{}),
	"fix":            reflect.TypeOf(FixResult{}),
	"loadset":        reflect.TypeOf(LoadSetResult{}),
	"load":           reflect.TypeOf(LoadResult{}),
	"endload":        reflect.TypeOf(EndLoadResult{}),
	"solve":          reflect.TypeOf(SolveResult{}),
	"stresses":       reflect.TypeOf(StressesResult{}),
	"model-info":     reflect.TypeOf(ModelInfoResult{}),
	"displacements":  reflect.TypeOf(DisplacementsResult{}),
	"stress-summary": reflect.TypeOf(StressSummaryResult{}),
	"store":          reflect.TypeOf(StoreResult{}),
	"retrieve":       reflect.TypeOf(RetrieveResult{}),
	"delete":         reflect.TypeOf(DeleteResult{}),
	"list":           reflect.TypeOf(ListResult{}),
	"snapshot":       reflect.TypeOf(SnapshotResult{}),
	"restore":        reflect.TypeOf(RestoreResult{}),
	"submit":         reflect.TypeOf(SubmitResult{}),
	"job-status":     reflect.TypeOf(JobStatusResult{}),
	"jobs":           reflect.TypeOf(JobsResult{}),
	"cancel":         reflect.TypeOf(CancelResult{}),
	"stats":          reflect.TypeOf(StatsResult{}),
}

// bodyCodec is the wire form of one verb or result kind: the envelope
// bytes that precede its body and the body's field plan.
type bodyCodec struct {
	name string // the verb or kind
	typ  reflect.Type
	open []byte // {"verb":"solve","body":
	plan *codec.Plan
	row  *verb // a verb's row; nil for a result kind
}

// The codec tables, derived from verbs and resultKinds: by wire name for
// decoding, by struct type for encoding and for a command's row.
var (
	cmdByVerb, cmdByType = map[string]*bodyCodec{}, map[reflect.Type]*bodyCodec{}
	resByKind, resByType = map[string]*bodyCodec{}, map[reflect.Type]*bodyCodec{}
)

var submitType = reflect.TypeOf(Submit{})

// The bytes a canonical envelope starts with, up to the verb or kind name.
var verbTag, kindTag = []byte(`{"verb":"`), []byte(`{"kind":"`)

func init() {
	// Verbs and kinds are plain identifiers: they stand for themselves
	// inside a JSON string.
	open := func(tag []byte, name, bodyKey string) []byte {
		return []byte(string(tag) + name + `","` + bodyKey + `":`)
	}
	for _, row := range verbs {
		typ := reflect.TypeOf(row.cmd)
		c := &bodyCodec{name: row.wire, typ: typ, row: row}
		if typ == submitType {
			// submit's body is its wrapped command's own envelope, under "cmd".
			c.open = open(verbTag, row.wire, "cmd")
		} else {
			c.open, c.plan = open(verbTag, row.wire, "body"), codec.PlanOf(typ)
		}
		cmdByVerb[row.wire], cmdByType[typ] = c, c
	}
	for kind, typ := range resultKinds {
		c := &bodyCodec{name: kind, typ: typ, open: open(kindTag, kind, "body"), plan: codec.PlanOf(typ)}
		resByKind[kind], resByType[typ] = c, c
	}
}

// codecOf returns a command's codec entry, nil for a type the table does
// not know.  The pointer and value spellings of a command share one.
func codecOf(cmd Command) *bodyCodec {
	t := reflect.TypeOf(cmd)
	if t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return cmdByType[t]
}

// Verb returns a command's wire verb name ("solve", "ping", …; "?" for
// a type the codec does not know).  Per-verb metric families
// (job.latency.*, server.request.*) key on it, so the metric vocabulary
// and the wire vocabulary are the same vocabulary.
func Verb(cmd Command) string {
	if c := codecOf(cmd); c != nil {
		return c.name
	}
	return "?"
}

// PropsOf returns a command's verb properties; a type the table does
// not know has none.
func PropsOf(cmd Command) Props {
	if c := codecOf(cmd); c != nil {
		return c.row.props
	}
	return 0
}

// ModelOf returns the model name a command reads or writes — the
// scheduler's serialization key: the value of the first <model> or <name>
// in the head of its row's signature.  Commands that touch the same model
// name run one at a time; a command whose row names none ("" key: list,
// help, submit, the job verbs) never serializes against anything.
func ModelOf(cmd Command) string {
	c := codecOf(cmd)
	if c == nil || c.row.model < 0 {
		return ""
	}
	v := reflect.Indirect(reflect.ValueOf(cmd))
	if !v.IsValid() {
		return ""
	}
	return v.Field(c.row.model).String()
}

// Submittable is the one check that a command may run as a job; the
// parser, the wire decoder and the scheduler all refuse through it, so
// the refusal reads the same locally, over the wire and in-process.
func Submittable(cmd Command) error {
	if PropsOf(cmd).Has(NotAJob) {
		return usage("%q cannot run as a job", Verb(cmd))
	}
	return nil
}

// CommandCodec and ResultCodec let another package's struct plan carry a
// Command or Result field as its wire envelope — the wire frames, the job
// journal record (see codec.PlanOf).
var (
	CommandCodec = codec.Variant{
		Type:   reflect.TypeOf((*Command)(nil)).Elem(),
		Append: func(dst []byte, v any) ([]byte, error) { return appendCommand(dst, v.(Command)) },
		Decode: func(data []byte, into any) (rest []byte, ok bool) {
			*into.(*Command), rest, ok = decodeCommand(data, false)
			return rest, ok
		},
	}
	ResultCodec = codec.Variant{
		Type:   reflect.TypeOf((*Result)(nil)).Elem(),
		Append: func(dst []byte, v any) ([]byte, error) { return appendResult(dst, v.(Result)) },
		Decode: func(data []byte, into any) (rest []byte, ok bool) {
			*into.(*Result), rest, ok = decodeResult(data)
			return rest, ok
		},
	}
)

// MarshalCommand encodes a command as its wire envelope.  Pointer
// commands are dereferenced first, exactly as Do dispatches them.
func MarshalCommand(cmd Command) ([]byte, error) {
	return appendCommand(make([]byte, 0, 128), cmd)
}

// appendCommand appends a command's envelope: verb, then the struct's
// fields under "body" — or, for submit, the wrapped command's envelope
// under "cmd".
func appendCommand(dst []byte, cmd Command) ([]byte, error) {
	if cmd == nil {
		return nil, usage("wire: nil command")
	}
	cmd = Value(cmd)
	c, ok := cmdByType[reflect.TypeOf(cmd)]
	if !ok {
		return nil, usage("wire: unknown command type %T", cmd)
	}
	dst = append(dst, c.open...)
	var err error
	if sub, ok := cmd.(Submit); ok {
		dst, err = appendCommand(dst, sub.Cmd)
	} else {
		dst, err = c.plan.Append(dst, reflect.ValueOf(cmd))
	}
	if err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// UnmarshalCommand decodes a wire envelope back into its typed Command.
// Unknown verbs and unknown fields are usage errors; the submittability
// restriction the parser enforces (no job-control or quit inside
// submit) is enforced here too, so a hand-built frame cannot smuggle an
// unsubmittable command into the scheduler.
func UnmarshalCommand(data []byte) (Command, error) {
	if cmd, rest, ok := decodeCommand(data, false); ok && len(rest) == 0 {
		return cmd, nil
	}
	return generalCommand(data, false)
}

// envelopeOf matches the opening of a canonical envelope at the front of
// data — tag, the quoted name, the body key — and returns the named codec
// and what follows the opening.
func envelopeOf(data, tag []byte, byName map[string]*bodyCodec) (*bodyCodec, []byte, bool) {
	name, ok := bytes.CutPrefix(data, tag)
	end := bytes.IndexByte(name, '"')
	if !ok || end < 0 {
		return nil, nil, false
	}
	c := byName[string(name[:end])]
	if c == nil {
		return nil, nil, false
	}
	rest, ok := bytes.CutPrefix(data, c.open)
	return c, rest, ok
}

// decodeCommand reads one canonical command envelope from the front of
// data.  It declines (ok false) whatever generalCommand would refuse — an
// unknown verb, a command submit may not wrap — as it declines any other
// spelling; nested is set while reading a submit's wrapped command.
func decodeCommand(data []byte, nested bool) (cmd Command, rest []byte, ok bool) {
	c, data, ok := envelopeOf(data, verbTag, cmdByVerb)
	if !ok || (nested && c.row.props.Has(NotAJob)) {
		return nil, nil, false
	}
	if c.typ == submitType {
		var inner Command
		if inner, data, ok = decodeCommand(data, true); !ok {
			return nil, nil, false
		}
		cmd = Submit{Cmd: inner}
	} else {
		ptr := reflect.New(c.typ)
		if data, ok = c.plan.Decode(data, ptr.Elem()); !ok {
			return nil, nil, false
		}
		cmd = ptr.Elem().Interface().(Command)
	}
	if len(data) == 0 || data[0] != '}' {
		return nil, nil, false
	}
	return cmd, data[1:], true
}

// generalCommand is the general decode path: any valid spelling of a
// command envelope, and every refusal's text.  nested is set while
// decoding a submit's wrapped command.
func generalCommand(data []byte, nested bool) (Command, error) {
	var env cmdEnvelope
	if err := strictUnmarshal(data, &env); err != nil {
		return nil, usage("wire: bad command envelope: %v", err)
	}
	if env.Verb == "submit" {
		if nested {
			// Refused before descending: every level re-reads all the levels
			// below it, so a frame of nested submits cost its depth squared
			// (10 s of CPU for 200 KB) to be told the same thing.
			return nil, Submittable(Submit{})
		}
		inner, err := generalCommand(env.Cmd, true)
		if err != nil {
			return nil, err
		}
		if err := Submittable(inner); err != nil {
			return nil, err
		}
		return Submit{Cmd: inner}, nil
	}
	c, ok := cmdByVerb[env.Verb]
	if !ok {
		return nil, usage("wire: unknown verb %q", env.Verb)
	}
	ptr := reflect.New(c.typ)
	if len(env.Body) > 0 {
		if err := strictUnmarshal(env.Body, ptr.Interface()); err != nil {
			return nil, usage("wire: bad %q body: %v", env.Verb, err)
		}
	}
	return ptr.Elem().Interface().(Command), nil
}

// MarshalResult encodes a result as its wire envelope.  The interpreter
// returns results as pointers; both spellings encode identically.
func MarshalResult(r Result) ([]byte, error) {
	return appendResult(make([]byte, 0, 256), r)
}

// appendResult appends a result's envelope: kind, then the struct's fields
// under "body".
func appendResult(dst []byte, r Result) ([]byte, error) {
	if r == nil {
		return nil, usage("wire: nil result")
	}
	v := reflect.ValueOf(r)
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return nil, usage("wire: nil result")
		}
		v = v.Elem()
	}
	c, ok := resByType[v.Type()]
	if !ok {
		return nil, usage("wire: unknown result type %T", r)
	}
	dst, err := c.plan.Append(append(dst, c.open...), v)
	if err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// UnmarshalResult decodes a wire envelope back into its typed Result,
// in the pointer form the interpreter returns.
func UnmarshalResult(data []byte) (Result, error) {
	if res, rest, ok := decodeResult(data); ok && len(rest) == 0 {
		return res, nil
	}
	return generalResult(data)
}

// decodeResult reads one canonical result envelope from the front of data.
func decodeResult(data []byte) (res Result, rest []byte, ok bool) {
	c, data, ok := envelopeOf(data, kindTag, resByKind)
	if !ok {
		return nil, nil, false
	}
	ptr := reflect.New(c.typ)
	if data, ok = c.plan.Decode(data, ptr.Elem()); !ok || len(data) == 0 || data[0] != '}' {
		return nil, nil, false
	}
	return ptr.Interface().(Result), data[1:], true
}

// generalResult is the general decode path for results.
func generalResult(data []byte) (Result, error) {
	var env resEnvelope
	if err := strictUnmarshal(data, &env); err != nil {
		return nil, usage("wire: bad result envelope: %v", err)
	}
	typ, ok := resultKinds[env.Kind]
	if !ok {
		return nil, usage("wire: unknown result kind %q", env.Kind)
	}
	ptr := reflect.New(typ)
	if len(env.Body) > 0 {
		if err := strictUnmarshal(env.Body, ptr.Interface()); err != nil {
			return nil, usage("wire: bad %q body: %v", env.Kind, err)
		}
	}
	return ptr.Interface().(Result), nil
}

// strictUnmarshal decodes exactly one JSON value rejecting unknown fields,
// so schema skew between client and server surfaces as an error instead of
// silently dropping data, and so does anything but white space after the
// value.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	return nil
}
