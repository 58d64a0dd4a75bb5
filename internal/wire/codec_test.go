package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/codec/codectest"
	"repro/internal/command"
)

// oracleRequest and oracleResponse are the frame encoders the plan codec
// replaced: the envelope marshalled into a RawMessage first, then
// json.Marshal of the frame.  (The envelope encoder has its own oracle in
// package command.)
func oracleRequest(req *Request) ([]byte, error) {
	r := *req
	if r.Cmd != nil {
		data, err := command.MarshalCommand(r.Cmd)
		if err != nil {
			return nil, err
		}
		r.Command, r.Cmd = data, nil
	}
	return json.Marshal(&r)
}

func oracleResponse(resp *Response) ([]byte, error) {
	r := *resp
	if r.Res != nil {
		data, err := command.MarshalResult(r.Res)
		if err != nil {
			return nil, err
		}
		r.Result, r.Res = data, nil
	}
	return json.Marshal(&r)
}

// payload strips the frame header AppendRequest and AppendResponse write.
func payload(t *testing.T, frame []byte, err error) ([]byte, error) {
	t.Helper()
	if err != nil {
		return nil, err
	}
	got, rerr := ReadFrame(bytes.NewReader(frame))
	if rerr != nil || len(got) != len(frame)-4 {
		t.Fatalf("frame header does not match its payload: %v", rerr)
	}
	return got, nil
}

func framed(data []byte) *bytes.Reader {
	var buf bytes.Buffer
	WriteFrame(&buf, data)
	return bytes.NewReader(buf.Bytes())
}

// same compares one encoding with its oracle's: equal bytes, or both fail
// with the same text.
func same(t *testing.T, what any, got []byte, gerr error, want []byte, werr error) bool {
	t.Helper()
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%+v: codec error %v, oracle error %v", what, gerr, werr)
		}
		return false
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n codec %s\noracle %s", what, got, want)
	}
	return true
}

// checkRequestBytes holds the request frame codec to its contract on one
// payload, which may be anything.  Soundness: a frame the one-pass decoder
// accepts json.Unmarshal accepts with the same id, hello and command bytes,
// those bytes decode — down command's general path, forced by a leading
// space — to the command handed on, and the frame is exactly what the
// encoder writes.  DecodeRequest picks its path from the bytes and refuses
// what json.Unmarshal refuses.  Whatever decodes re-encodes to the oracle's
// bytes and decodes from them to the same frame.  It reports whether the
// one-pass decoder accepted.
func checkRequestBytes(t *testing.T, data []byte) bool {
	t.Helper()
	var canon, general Request
	rest, ok := requestPlan.Decode(data, reflect.ValueOf(&canon).Elem())
	canonical := ok && len(rest) == 0
	gerr := json.Unmarshal(data, &general)
	if canonical {
		if gerr != nil {
			t.Fatalf("one-pass decoder accepted what json.Unmarshal refuses (%v): %s", gerr, data)
		}
		if canon.ID != general.ID || !reflect.DeepEqual(canon.Hello, general.Hello) || !bytes.Equal(canon.Command, general.Command) {
			t.Fatalf("the two paths disagree on %s:\none-pass %+v\n general %+v", data, canon, general)
		}
		if (canon.Cmd != nil) != (len(canon.Command) > 0) {
			t.Fatalf("one-pass decoder split command and bytes on %s: %+v", data, canon)
		}
		if canon.Cmd != nil {
			if cmd, err := command.UnmarshalCommand(append([]byte(" "), canon.Command...)); err != nil || !reflect.DeepEqual(cmd, canon.Cmd) {
				t.Fatalf("one-pass decoder handed on %#v for %s; the general path says %#v, %v", canon.Cmd, canon.Command, cmd, err)
			}
		}
		frame, err := AppendRequest(nil, &canon)
		if enc, err := payload(t, frame, err); err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("one-pass decoder accepted a form the encoder does not write:\n  in %s\n out %s (%v)", data, enc, err)
		}
	}
	req, err := DecodeRequest(framed(data))
	if (err != nil) != (gerr != nil) || (err == nil && req.General == canonical) {
		t.Fatalf("DecodeRequest(%q) = %+v, %v; json.Unmarshal says %v, one-pass decoder accepted: %v", data, req, err, gerr, canonical)
	}
	if gerr != nil {
		return false
	}
	frame, err := AppendRequest(nil, &general)
	enc, err := payload(t, frame, err)
	want, werr := oracleRequest(&general)
	if !same(t, general, enc, err, want, werr) {
		t.Fatalf("a decoded frame does not encode: %v", err)
	}
	back, err := DecodeRequest(framed(enc))
	if err != nil {
		t.Fatalf("decode(encode(%+v)): %v", general, err)
	}
	frame, err = AppendRequest(nil, back)
	if again, err := payload(t, frame, err); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("decode(encode(%+v)) = %+v, which encodes to %s (%v), not %s", general, back, again, err, enc)
	}
	return canonical
}

// checkResponseBytes is checkRequestBytes for response frames.
func checkResponseBytes(t *testing.T, data []byte) bool {
	t.Helper()
	var canon, general Response
	rest, ok := responsePlan.Decode(data, reflect.ValueOf(&canon).Elem())
	canonical := ok && len(rest) == 0
	gerr := json.Unmarshal(data, &general)
	if canonical {
		if gerr != nil {
			t.Fatalf("one-pass decoder accepted what json.Unmarshal refuses (%v): %s", gerr, data)
		}
		res, raw := canon.Res, canon.Result
		if canon.Res = nil; !reflect.DeepEqual(canon, general) {
			t.Fatalf("the two paths disagree on %s:\none-pass %+v\n general %+v", data, canon, general)
		}
		if (res != nil) != (len(raw) > 0) {
			t.Fatalf("one-pass decoder split result and bytes on %s: %+v", data, canon)
		}
		if res != nil {
			if g, err := command.UnmarshalResult(append([]byte(" "), raw...)); err != nil || !reflect.DeepEqual(g, res) {
				t.Fatalf("one-pass decoder handed on %#v for %s; the general path says %#v, %v", res, raw, g, err)
			}
		}
		canon.Res = res
		frame, err := AppendResponse(nil, &canon)
		if enc, err := payload(t, frame, err); err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("one-pass decoder accepted a form the encoder does not write:\n  in %s\n out %s (%v)", data, enc, err)
		}
	}
	resp, err := DecodeResponse(framed(data))
	if (err != nil) != (gerr != nil) || (err == nil && (resp.Res != nil) != (canonical && len(resp.Result) > 0)) {
		t.Fatalf("DecodeResponse(%q) = %+v, %v; json.Unmarshal says %v, one-pass decoder accepted: %v", data, resp, err, gerr, canonical)
	}
	if gerr != nil {
		return false
	}
	frame, err := AppendResponse(nil, &general)
	enc, err := payload(t, frame, err)
	want, werr := oracleResponse(&general)
	if !same(t, general, enc, err, want, werr) {
		t.Fatalf("a decoded frame does not encode: %v", err)
	}
	back, err := DecodeResponse(framed(enc))
	if err != nil {
		t.Fatalf("decode(encode(%+v)): %v", general, err)
	}
	frame, err = AppendResponse(nil, back)
	if again, err := payload(t, frame, err); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("decode(encode(%+v)) = %+v, which encodes to %s (%v), not %s", general, back, again, err, enc)
	}
	return canonical
}

// sampleCommands and sampleResults are the shapes frames are built around:
// the benchmark workloads' verbs and one of each structural kind (nested
// envelope, slices, map, slices of structs).
var sampleCommands = []command.Command{
	command.Ping{},
	command.SetMaterial{E: 200000, Nu: 0.3, T: 10, A: 2000},
	command.GenerateGrid{Name: "g", NX: 8, NY: 6, W: 8, H: 6, ClampLeft: true},
	command.EndLoad{Model: "g", Set: "tip", FY: -1000},
	command.Solve{Model: "g", Set: "tip", Method: command.MethodCholesky},
	command.Submit{Cmd: command.Solve{Model: "g", Set: "tip", Method: command.MethodCholesky}},
	command.Wait{ID: 4242},
	command.Stresses{Model: "g"},
	command.Store{Model: "t0m3"},
	command.Retrieve{Name: "t1m0"},
	command.Jobs{Owner: "engineer", State: command.JobRunning},
}

var sampleResults = []command.Result{
	&command.PingResult{},
	&command.MaterialResult{E: 200000, Nu: 0.3, T: 10, A: 2000},
	&command.GenerateResult{Kind: "grid", Name: "g", Nodes: 63, Elements: 96},
	&command.EndLoadResult{Set: "tip", Entries: 7},
	&command.SubmitResult{ID: 4242, State: command.JobQueued, Cmd: "solve g tip method cholesky"},
	&command.SolveResult{Model: "g", Set: "tip", Backend: "cholesky", Flops: 40194, Refactored: true,
		MaxDisp: 0.0004921465530522529, MaxDOF: 125},
	&command.StressesResult{Model: "g", Elements: 96, MaxVonMises: 33.56213203435596, MaxElem: 1},
	&command.StoreResult{Name: "t0m3", LoadSets: 1},
	&command.RetrieveResult{Name: "t1m0", LoadSets: 1},
	&command.ElementResult{Kind: "cst", Model: "m", Nodes: []int{0, 1, 2}},
	&command.ModelInfoResult{Name: "m", Nodes: 20, DOFs: 40, Fixed: 8, ElementCounts: map[string]int{"bar": 2, "cst": 24}},
	&command.JobsResult{Rows: []command.JobRow{{ID: 7, Owner: "engineer", State: command.JobDone, Cmd: "solve m ls"}}},
	&command.StatsResult{UptimeSeconds: 12, Counters: []command.StatEntry{{Name: "job.done", Value: 42}},
		Histograms: []command.StatHistogram{{Name: "job.latency.solve", Count: 3, SumNS: 150000,
			Buckets: []command.StatBucket{{Pow: 15, Count: 1}, {Pow: 16, Count: 2}}}}},
}

// sampleFrames are the frames of one connection's life around those
// samples, in both directions.
func sampleFrames() (reqs []*Request, resps []*Response) {
	reqs = append(reqs, &Request{ID: 1, Hello: &Hello{User: "tenant0", Proto: command.ProtocolVersion}},
		&Request{ID: 1, Hello: &Hello{User: "tenant1", Proto: command.ProtocolVersion, Notify: true}}, &Request{ID: 2})
	for i, cmd := range sampleCommands {
		reqs = append(reqs, &Request{ID: uint64(3 + i), Cmd: cmd})
	}
	resps = append(resps,
		&Response{ID: 1, Welcome: &Welcome{Server: "fem2d", Release: command.Release, Proto: command.ProtocolVersion,
			Session: "tenant0@conn-1", Storage: "file", Degraded: true, UptimeSeconds: 3, Role: "leader", Leader: "a:1"}},
		&Response{ID: 1, Welcome: &Welcome{Server: "fem2d", Release: command.Release, Proto: command.ProtocolVersion, Session: "anon@conn-2"}},
		&Response{ID: 9, Error: &Error{Code: CodeNotLeader, Message: "not the cluster leader", Leader: "a:1"}},
		&Response{ID: 9, Res: &command.QuitResult{}, Error: &Error{Code: CodeQuit, Message: "quit"}},
		&Response{Event: &JobEvent{Job: 3, State: "queued", Cmd: "solve g tip method cholesky"}},
		&Response{Event: &JobEvent{Job: 3, State: "failed", Cmd: "solve g tip", Error: "singular matrix"}},
		&Response{})
	for i, res := range sampleResults {
		resps = append(resps, &Response{ID: uint64(3 + i), Res: res})
	}
	return reqs, resps
}

// TestCodecMatchesEncodingJSON is the seeded differential for frames:
// random ids, handshakes, errors, events and commands and results with
// random field values (see codectest.Fill) encode to the oracle's bytes or
// fail with its text, and every encoding stands up to checkRequestBytes or
// checkResponseBytes.  Every sample frame must be read by the one-pass
// decoder.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	reqs, resps := sampleFrames()
	for _, req := range reqs {
		frame, err := AppendRequest(nil, req)
		if data, err := payload(t, frame, err); err != nil || !checkRequestBytes(t, data) {
			t.Errorf("request %+v went down the general path: %s (%v)", req, data, err)
		}
	}
	for _, resp := range resps {
		frame, err := AppendResponse(nil, resp)
		if data, err := payload(t, frame, err); err != nil || !checkResponseBytes(t, data) {
			t.Errorf("response %+v went down the general path: %s (%v)", resp, data, err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	canonical, failed := 0, 0
	for i := 0; i < 3000; i++ {
		var req Request
		codectest.Fill(rng, reflect.ValueOf(&req.ID).Elem())
		codectest.Fill(rng, reflect.ValueOf(&req.Hello).Elem())
		if proto := sampleCommands[rng.Intn(len(sampleCommands))]; rng.Intn(4) > 0 {
			if sub, ok := proto.(command.Submit); ok {
				proto = sub.Cmd
			}
			ptr := reflect.New(reflect.TypeOf(proto))
			codectest.Fill(rng, ptr.Elem())
			req.Cmd = ptr.Elem().Interface().(command.Command)
			if rng.Intn(3) == 0 {
				req.Cmd = command.Submit{Cmd: req.Cmd}
			}
		}
		frame, err := AppendRequest(nil, &req)
		got, err := payload(t, frame, err)
		want, werr := oracleRequest(&req)
		if !same(t, req, got, err, want, werr) {
			failed++
		} else if checkRequestBytes(t, got) {
			canonical++
		}

		var resp Response
		for _, f := range []any{&resp.ID, &resp.Welcome, &resp.Error, &resp.Event} {
			codectest.Fill(rng, reflect.ValueOf(f).Elem())
		}
		if proto := sampleResults[rng.Intn(len(sampleResults))]; rng.Intn(4) > 0 {
			ptr := reflect.New(reflect.TypeOf(proto).Elem())
			codectest.Fill(rng, ptr.Elem())
			resp.Res = ptr.Interface().(command.Result)
		}
		frame, err = AppendResponse(nil, &resp)
		got, err = payload(t, frame, err)
		want, werr = oracleResponse(&resp)
		if !same(t, resp, got, err, want, werr) {
			failed++
		} else if checkResponseBytes(t, got) {
			canonical++
		}
	}
	if canonical < 500 || failed < 30 {
		t.Errorf("%d frames were canonical, %d failed to encode: the generator no longer covers both", canonical, failed)
	}
}

// hostileFrames are payloads the one-pass decoder must leave alone.
var hostileFrames = []string{
	`{"id":7,"command":{"verb":"ping"}}`,
	`{"id":7,"command":{"verb":"ping","body":{}}} `,
	`{"id":7, "command":{"verb":"ping","body":{}}}`,
	`{"id":7,"command":{"verb":"ping","body":{}}}{"id":8}`,
	`{"id":7,"id":8,"command":{"verb":"ping","body":{}}}`,
	`{"command":{"verb":"ping","body":{}},"id":7}`,
	`{"id":7,"command":{"verb":"ping","body":{}},"command":{"verb":"quit","body":{}}}`,
	`{"id":7.0,"command":{"verb":"ping","body":{}}}`,
	`{"id":-7,"command":{"verb":"ping","body":{}}}`,
	`{"id":18446744073709551616}`,
	`{"id":07}`,
	`{"id":7,"command":{"verb":"warp","body":{}}}`,
	`{"id":7,"command":{"verb":"status","body":{"ID":1.0}}}`,
	`{"id":7,"command":{"verb":"submit","cmd":{"verb":"quit","body":{}}}}`,
	`{"id":7,"command":null}`,
	`{"id":7,"command":7}`,
	`{"id":7,"hello":null}`,
	`{"id":7,"hello":{"user":"eng","proto":5},"command":{"verb":"ping","body":{}}}`,
	`{"id":1,"hello":{"proto":5,"user":"eng"}}`,
	`{"id":1,"hello":{"user":"e\u006eg","proto":5}}`,
	`{"id":1,"hello":{"user":"eng","proto":5,"extra":1}}`,
	`{"id":1,"hello":{"user":"eng","proto":6,"notify":false}}`,
	`{"id":1,"hello":{"user":"eng","proto":6,"notify":1}}`,
	`{"id":0}`, `{}`, `{"id":7,"nope":1}`,
	`{"id":7,"result":{"kind":"ping"}}`,
	`{"id":7,"result":{"kind":"ping","body":{"Degraded":false,"uptime_s":0}}}`,
	`{"id":7,"result":{"kind":"warp","body":{}}}`,
	`{"id":0,"result":{"kind":"ping","body":{"Degraded":false}}}`,
	`{"result":{"kind":"ping","body":{"Degraded":false}},"id":7}`,
	`{"id":7,"error":{"code":"usage","message":"x","leader":""}}`,
	`{"id":7,"error":{"message":"x","code":"usage"}}`,
	`{"id":7,"welcome":null,"event":null}`,
	`{"event":{"job":3,"state":"done","cmd":""}}`,
	`{"event":{"job":3.0,"state":"done"}}`,
	`not json`, ``, `{`, `null`, `[]`, `7`,
}

// FuzzFrame holds both frame codecs to checkRequestBytes and
// checkResponseBytes on arbitrary payloads: the one-pass decoder is sound
// and exact, the encoder matches its oracle, decode∘encode is the identity,
// and a malformed frame is an error, never a panic.
func FuzzFrame(f *testing.F) {
	reqs, resps := sampleFrames()
	for _, req := range reqs {
		frame, err := AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	for _, resp := range resps {
		frame, err := AppendResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	for _, s := range hostileFrames {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestBytes(t, data)
		checkResponseBytes(t, data)
	})
}
