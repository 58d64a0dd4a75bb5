package command

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/codec/codectest"

	"repro/internal/errs"
)

// oracleMarshalCommand and oracleMarshalResult are the encoders the plan
// codec replaced, moved here verbatim: body, then envelope, each its own
// json.Marshal.  Every byte the codec writes is checked against them.
func oracleMarshalCommand(cmd Command) ([]byte, error) {
	if cmd == nil {
		return nil, usage("wire: nil command")
	}
	cmd = Value(cmd)
	if sub, ok := cmd.(Submit); ok {
		inner, err := oracleMarshalCommand(sub.Cmd)
		if err != nil {
			return nil, err
		}
		return json.Marshal(cmdEnvelope{Verb: "submit", Cmd: inner})
	}
	verb, ok := cmdByType[reflect.TypeOf(cmd)]
	if !ok {
		return nil, usage("wire: unknown command type %T", cmd)
	}
	body, err := json.Marshal(cmd)
	if err != nil {
		return nil, err
	}
	return json.Marshal(cmdEnvelope{Verb: verb.name, Body: body})
}

func oracleMarshalResult(r Result) ([]byte, error) {
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
	kind, ok := resByType[v.Type()]
	if !ok {
		return nil, usage("wire: unknown result type %T", r)
	}
	body, err := json.Marshal(v.Interface())
	if err != nil {
		return nil, err
	}
	return json.Marshal(resEnvelope{Kind: kind.name, Body: body})
}

// workloadCommands and workloadResults are the verb streams of the four
// BENCHMARK.json workloads — set-up, then one job of each shape — as the
// benchmark's generators build them (benchmark/workload.go).
func workloadCommands() []Command {
	solveSmall := Solve{Model: "g", Set: "tip", Method: MethodCholesky}
	solveLarge := Solve{Model: "t0m3", Set: "tip", Method: MethodCholeskyEnv}
	return []Command{
		SetMaterial{E: 200000, Nu: 0.3, T: 10, A: 2000},
		SetMaterial{E: 200017.25, Nu: 0.3, T: 10, A: 2000},
		GenerateGrid{Name: "g", NX: 8, NY: 6, W: 8, H: 6, ClampLeft: true},
		GenerateGrid{Name: "t0m3", NX: 40, NY: 24, W: 40, H: 24, ClampLeft: true},
		EndLoad{Model: "g", Set: "tip", FY: -1000},
		EndLoad{Model: "t0m3", Set: "tip", FY: -1003.5},
		solveSmall, solveLarge,
		Submit{Cmd: solveSmall}, Submit{Cmd: solveLarge},
		Wait{ID: 1}, Wait{ID: 4242}, Wait{ID: 31000},
		Stresses{Model: "g"}, Stresses{Model: "t0m3"},
		Store{Model: "t0m3"}, Retrieve{Name: "t1m0"},
	}
}

func workloadResults() []Result {
	return []Result{
		&MaterialResult{E: 200017.25, Nu: 0.3, T: 10, A: 2000},
		&GenerateResult{Kind: "grid", Name: "g", Nodes: 63, Elements: 96},
		&GenerateResult{Kind: "grid", Name: "t0m3", Nodes: 1025, Elements: 1920},
		&EndLoadResult{Set: "tip", Entries: 7},
		&SubmitResult{ID: 4242, State: JobQueued, Cmd: "solve g tip method cholesky"},
		&SolveResult{Model: "g", Set: "tip", Backend: "cholesky", Flops: 40194, Refactored: true,
			MaxDisp: 0.0004921465530522529, MaxDOF: 125},
		&SolveResult{Model: "t0m3", Set: "tip", Backend: "cholesky-env", Flops: 4189700,
			MaxDisp: 0.011786398873208172, MaxDOF: 2049},
		&StressesResult{Model: "t0m3", Elements: 1920, MaxVonMises: 33.56213203435596, MaxElem: 1},
		&StoreResult{Name: "t0m3", LoadSets: 1},
		&RetrieveResult{Name: "t1m0", LoadSets: 1},
	}
}

// envelopeCodec is one of the two envelope codecs — commands or results —
// as the properties below see it: its canonical decoder, its general path,
// the encoder and the encoder it replaced.
type envelopeCodec[T any] struct {
	canonical func([]byte) (T, []byte, bool)
	general   func([]byte) (T, error)
	marshal   func(T) ([]byte, error)
	oracle    func(T) ([]byte, error)
	unmarshal func([]byte) (T, error)
}

var (
	commandCodec = envelopeCodec[Command]{
		canonical: func(data []byte) (Command, []byte, bool) { return decodeCommand(data, false) },
		general:   func(data []byte) (Command, error) { return generalCommand(data, false) },
		marshal:   MarshalCommand, oracle: oracleMarshalCommand, unmarshal: UnmarshalCommand,
	}
	resultCodec = envelopeCodec[Result]{
		canonical: decodeResult, general: generalResult,
		marshal: MarshalResult, oracle: oracleMarshalResult, unmarshal: UnmarshalResult,
	}
)

// check holds the codec to its contract on one input, which may be
// anything.  Soundness: what the canonical decoder accepts the general path
// accepts, as an equal value, and it is exactly what the encoder writes.
// Oracle: whatever decodes at all re-encodes to the replaced encoder's
// bytes.  Identity: and decodes from them to a value that encodes to them
// again (to itself, but for an empty omitempty slice, which has always come
// back nil).  Malformed input is a usage error.  It reports whether the
// canonical decoder accepted.
func (c envelopeCodec[T]) check(t *testing.T, data []byte) bool {
	t.Helper()
	v, rest, ok := c.canonical(data)
	canonical := ok && len(rest) == 0
	general, gerr := c.general(data)
	if canonical {
		if gerr != nil {
			t.Fatalf("canonical decoder accepted what the general path refuses (%v): %s", gerr, data)
		}
		if !reflect.DeepEqual(v, general) {
			t.Fatalf("the two paths disagree on %s:\ncanonical %#v\n  general %#v", data, v, general)
		}
		if enc, err := c.marshal(v); err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("canonical decoder accepted a form the encoder does not write:\n  in %s\n out %s (%v)", data, enc, err)
		}
	}
	if gerr != nil {
		if !errors.Is(gerr, errs.ErrUsage) {
			t.Fatalf("malformed input %q: %v, want a usage error", data, gerr)
		}
		return false
	}
	enc, err := c.marshal(general)
	want, werr := c.oracle(general)
	if err != nil || werr != nil || !bytes.Equal(enc, want) {
		t.Fatalf("%#v:\n codec %s (%v)\noracle %s (%v)", general, enc, err, want, werr)
	}
	back, err := c.unmarshal(enc)
	if again, _ := c.marshal(back); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("decode(encode(%#v)) = %#v, %v", general, back, err)
	}
	return canonical
}

// TestCodecMatchesEncodingJSON is the seeded differential over every verb
// and result kind: random field values — strings with quotes, <>&, U+2028,
// control bytes and invalid UTF-8; floats across the 'f'/'e' boundaries,
// subnormals, -0, NaN and the infinities; MinInt64; nil and empty slices
// and maps; every omitempty field zero and non-zero — encode to the
// oracle's bytes or fail with its text, bare, wrapped in submit and as a
// pointer; and the encoding stands up to envelopeCodec.check.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	same := func(what any, got []byte, gerr error, want []byte, werr error) bool {
		t.Helper()
		if gerr != nil || werr != nil {
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%#v: codec error %v, oracle error %v", what, gerr, werr)
			}
			return false
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%#v:\n codec %s\noracle %s", what, got, want)
		}
		return true
	}
	canonical, failed := 0, 0
	// Sorted, so that the seed decides the values.
	names, kinds := make([]string, 0, len(cmdByVerb)), make([]string, 0, len(resultKinds))
	for verb := range cmdByVerb {
		names = append(names, verb)
	}
	for kind := range resultKinds {
		kinds = append(kinds, kind)
	}
	sort.Strings(names)
	sort.Strings(kinds)
	for _, verb := range names {
		row := cmdByVerb[verb]
		if row.typ == submitType {
			continue
		}
		for i := 0; i < 300; i++ {
			ptr := reflect.New(row.typ)
			codectest.Fill(rng, ptr.Elem())
			cmd := ptr.Elem().Interface().(Command)
			got, gerr := MarshalCommand(cmd)
			want, werr := oracleMarshalCommand(cmd)
			if !same(cmd, got, gerr, want, werr) {
				failed++
				continue
			}
			if commandCodec.check(t, got) {
				canonical++
			}
			got, gerr = MarshalCommand(ptr.Interface().(Command))
			same(ptr.Interface(), got, gerr, want, nil)
			if !row.row.props.Has(NotAJob) {
				sub := Submit{Cmd: cmd}
				got, gerr = MarshalCommand(sub)
				want, werr = oracleMarshalCommand(sub)
				if same(sub, got, gerr, want, werr) {
					commandCodec.check(t, got)
				}
			}
		}
	}
	for _, kind := range kinds {
		typ := resultKinds[kind]
		for i := 0; i < 300; i++ {
			ptr := reflect.New(typ)
			codectest.Fill(rng, ptr.Elem())
			res := ptr.Interface().(Result)
			got, gerr := MarshalResult(res)
			want, werr := oracleMarshalResult(res)
			if !same(res, got, gerr, want, werr) {
				failed++
				continue
			}
			if resultCodec.check(t, got) {
				canonical++
			}
			got, gerr = MarshalResult(ptr.Elem().Interface().(Result))
			same(ptr.Elem().Interface(), got, gerr, want, nil)
		}
	}
	if canonical < 1000 || failed < 100 {
		t.Errorf("%d encodings were canonical, %d values failed to encode: the generator no longer covers both", canonical, failed)
	}
	for _, bad := range []Command{nil, (*Solve)(nil), Submit{}, Submit{Cmd: (*Ping)(nil)}} {
		got, gerr := MarshalCommand(bad)
		want, werr := oracleMarshalCommand(bad)
		if same(bad, got, gerr, want, werr) {
			t.Errorf("MarshalCommand(%#v) = %s, want an error", bad, got)
		}
	}
	for _, bad := range []Result{nil, (*SolveResult)(nil)} {
		got, gerr := MarshalResult(bad)
		want, werr := oracleMarshalResult(bad)
		if same(bad, got, gerr, want, werr) {
			t.Errorf("MarshalResult(%#v) = %s, want an error", bad, got)
		}
	}
}

// TestSamplesTakeTheCanonicalPath: what our own encoder writes for every
// verb, every result kind and the benchmark workloads' streams is read by
// the one-pass decoder, none of it by the general path.  (A sample the
// canonical decoder is known to leave to the general path would be listed
// here by name; there is none.)
func TestSamplesTakeTheCanonicalPath(t *testing.T) {
	for _, cmd := range append(workloadCommands(), wireCommandSamples...) {
		data, err := MarshalCommand(cmd)
		if err != nil {
			t.Fatal(err)
		}
		if !commandCodec.check(t, data) {
			t.Errorf("%s went down the general path: %s", cmd, data)
		}
	}
	for _, res := range append(workloadResults(), wireResultSamples...) {
		data, err := MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !resultCodec.check(t, data) {
			t.Errorf("%T went down the general path: %s", res, data)
		}
	}
}

// TestGeneralPathRefusesTrailingBytes: an envelope is one JSON value.
// strictUnmarshal used to stop after the first value and return it,
// whatever followed.
func TestGeneralPathRefusesTrailingBytes(t *testing.T) {
	for _, data := range []string{
		`{"verb":"ping"}{"verb":"quit"}`,
		`{"verb":"ping"}]]]`,
		`{"verb":"ping"} x`,
		`{"verb":"ping","body":{}}{"verb":"quit"}`,
		`{"verb":"ping","body":{}}}`,
		`{"verb":"submit","cmd":{"verb":"ping","body":{}}}"`,
	} {
		if cmd, err := UnmarshalCommand([]byte(data)); !errors.Is(err, errs.ErrUsage) || !strings.Contains(err.Error(), "after top-level value") {
			t.Errorf("UnmarshalCommand(%s) = %#v, %v; want a usage error naming the trailing byte", data, cmd, err)
		}
	}
	for _, data := range []string{
		`{"kind":"ping"}]]]`,
		`{"kind":"ping"}{"kind":"quit"}`,
		`{"kind":"ping","body":{"Degraded":false}}0`,
	} {
		if res, err := UnmarshalResult([]byte(data)); !errors.Is(err, errs.ErrUsage) || !strings.Contains(err.Error(), "after top-level value") {
			t.Errorf("UnmarshalResult(%s) = %#v, %v; want a usage error naming the trailing byte", data, res, err)
		}
	}
	// White space is not data.
	if cmd, err := UnmarshalCommand([]byte(" {\"verb\":\"ping\"} \r\n\t")); err != nil || cmd != (Ping{}) {
		t.Errorf("UnmarshalCommand with white space around the envelope = %#v, %v", cmd, err)
	}
	if res, err := UnmarshalResult([]byte("{\"kind\":\"quit\"}\n")); err != nil || !reflect.DeepEqual(res, &QuitResult{}) {
		t.Errorf("UnmarshalResult with a trailing newline = %#v, %v", res, err)
	}
}

// TestNestedSubmitIsRefusedBeforeDescending: FuzzCommandCodec's first find.
// The general path decoded a submit's wrapped command before asking whether
// submit may wrap it, each level re-reading every level below: 9 000 nested
// submits, a 200 KB frame any client can send, held a daemon core for 10 s.
func TestNestedSubmitIsRefusedBeforeDescending(t *testing.T) {
	const depth = 9000
	data := []byte(strings.Repeat(`{"verb":"submit","cmd":`, depth) + `{"verb":"ping","body":{}}` + strings.Repeat(`}`, depth))
	start := time.Now()
	_, err := UnmarshalCommand(data)
	if took := time.Since(start); !errors.Is(err, errs.ErrUsage) || !strings.Contains(err.Error(), `"submit" cannot run as a job`) || took > 2*time.Second {
		t.Errorf("UnmarshalCommand of %d nested submits = %v after %v; want the not-a-job refusal at once", depth, err, took)
	}
}

// hostileEnvelopes are valid-looking spellings the canonical decoder must
// leave alone, seeded into both fuzz corpora (with "verb" and "kind"
// swapped as needed): duplicated and out-of-order keys, non-canonical
// numbers, white space, escapes, missing and unknown parts, deep nesting.
var hostileEnvelopes = []string{
	`{"verb":"status","body":{"ID":7,"ID":8}}`,
	`{"verb":"status","body":{"ID":1.0}}`,
	`{"verb":"status","body":{"ID":1e0}}`,
	`{"verb":"status","body":{"ID":-0}}`,
	`{"verb":"status","body":{"ID":07}}`,
	`{"verb":"status","body":{"ID":"7"}}`,
	`{"verb":"status","body":{"ID":7,"Nope":1}}`,
	`{"verb":"status","body":{"ID":9223372036854775808}}`,
	`{"verb":"status","body":{}}`,
	`{"verb":"status"}`,
	`{"body":{"ID":7},"verb":"status"}`,
	`{"verb":"status","verb":"wait","body":{"ID":7}}`,
	`{"verb":"status","body":{"ID":7},"body":{"ID":8}}`,
	`{"verb":"status","body":{"ID":7},"cmd":{"verb":"ping"}}`,
	`{"verb":"status", "body":{"ID":7}}`,
	`{"verb":"status","body":{"ID":7}} `,
	`{"verb":"status","body":{"ID":7}}{}`,
	`{"verb":"st\u0061tus","body":{"ID":7}}`,
	`{"verb":"warp","body":{}}`,
	`{"verb":"solve","body":{"Set":"l","Model":"g","Method":"","Precond":"","Parallel":0,"Substructures":0}}`,
	`{"verb":"solve","body":{"Model":"g\u0041","Set":"l","Method":"","Precond":"","Parallel":0,"Substructures":0}}`,
	`{"verb":"solve","body":{"Model":"<g>","Set":"l","Method":"","Precond":"","Parallel":0,"Substructures":0}}`,
	`{"verb":"material","body":{"E":2e5,"Nu":0.30,"T":10.0,"A":2000}}`,
	`{"verb":"material","body":{"E":1e999,"Nu":0.3,"T":10,"A":2000}}`,
	`{"verb":"submit","cmd":{"verb":"quit","body":{}}}`,
	`{"verb":"submit","cmd":{"verb":"wait","body":{"ID":1}}}`,
	`{"verb":"submit","cmd":{"verb":"submit","cmd":{"verb":"ping","body":{}}}}`,
	`{"verb":"submit","body":{}}`,
	`{"verb":"submit"}`,
	`{"verb":"ping","cmd":{"verb":"ping","body":{}}}`,
	strings.Repeat(`{"verb":"submit","cmd":`, 200) + `{"verb":"ping","body":{}}` + strings.Repeat(`}`, 200),
	`{"kind":"model-info","body":{"Name":"m","Nodes":1,"DOFs":2,"Fixed":0,"ElementCounts":{"cst":1,"bar":2}}}`,
	`{"kind":"model-info","body":{"Name":"m","Nodes":1,"DOFs":2,"Fixed":0,"ElementCounts":{"bar":1,"bar":2}}}`,
	`{"kind":"element","body":{"Kind":"cst","Model":"m","Nodes":[0,1,2,]}}`,
	`{"kind":"element","body":{"Kind":"cst","Model":"m","Nodes":[0, 1]}}`,
	`{"kind":"ping","body":{"Degraded":false,"uptime_s":0}}`,
	`{"kind":"stats","body":{"uptime_s":1,"counters":[]}}`,
	`not json`, ``, `{`, `null`, `[]`, `"ping"`, `{"verb":7}`,
}

// FuzzCommandCodec holds the command codec to envelopeCodec.check on
// arbitrary bytes: the canonical decoder is sound and exact, the encoder
// matches its oracle, decode∘encode is the identity, and malformed input is
// a usage error, never a panic.
func FuzzCommandCodec(f *testing.F) {
	for _, cmd := range append(workloadCommands(), wireCommandSamples...) {
		data, err := MarshalCommand(cmd)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range hostileEnvelopes {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { commandCodec.check(t, data) })
}

// FuzzResultCodec is FuzzCommandCodec for results.
func FuzzResultCodec(f *testing.F) {
	for _, res := range append(workloadResults(), wireResultSamples...) {
		data, err := MarshalResult(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range hostileEnvelopes {
		f.Add([]byte(strings.Replace(s, `{"verb":`, `{"kind":`, 1)))
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { resultCodec.check(t, data) })
}
