package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/command"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte(`{"id":1}`), {}, bytes.Repeat([]byte("x"), 70000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadFrame = %d bytes, %v; want %d bytes", len(got), err, len(want))
		}
	}
	// The stream ended between frames: a clean EOF, not a truncation.
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("ReadFrame at end of stream = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var whole bytes.Buffer
	if err := WriteFrame(&whole, []byte(`{"id":7}`)); err != nil {
		t.Fatal(err)
	}
	frame := whole.Bytes()
	for _, cut := range []int{1, 3, 4, 5, len(frame) - 1} { // inside the header, at its end, inside the payload
		if _, err := ReadFrame(bytes.NewReader(frame[:cut])); err != io.ErrUnexpectedEOF {
			t.Errorf("frame cut at byte %d of %d: %v, want io.ErrUnexpectedEOF", cut, len(frame), err)
		}
	}
}

func TestFrameTooBig(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	// Only the header: the reader must refuse on the declaration alone,
	// before trying to allocate or read the payload.
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("ReadFrame of an oversized declaration = %v, want ErrFrameTooBig", err)
	}
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err != io.ErrUnexpectedEOF {
		t.Errorf("ReadFrame of a MaxFrame declaration with no payload = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("WriteFrame of an oversized payload = %v, want ErrFrameTooBig", err)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	// Envelopes in a valid spelling the encoder does not write (no body) go
	// through as bytes and come back as bytes, off the general path; the
	// canonical spelling comes back decoded as well, whether it was sent as
	// bytes or as the value.
	req := &Request{ID: 9, Command: json.RawMessage(`{"verb":"ping"}`)}
	reqGeneral := &Request{ID: 9, Command: req.Command, General: true}
	reqRaw := &Request{ID: 9, Command: json.RawMessage(`{"verb":"ping","body":{}}`)}
	reqTyped := &Request{ID: 9, Cmd: command.Ping{}}
	reqBoth := &Request{ID: 9, Command: reqRaw.Command, Cmd: command.Ping{}}
	hello := &Request{ID: 1, Hello: &Hello{User: "eng", Proto: 5}}
	resp := &Response{ID: 9, Result: json.RawMessage(`{"kind":"ping"}`),
		Error: &Error{Code: CodeNotLeader, Message: "not here", Leader: "a:1"}}
	respRaw := &Response{ID: 9, Result: json.RawMessage(`{"kind":"ping","body":{"Degraded":false}}`)}
	respTyped := &Response{ID: 9, Res: &command.PingResult{}}
	respBoth := &Response{ID: 9, Result: respRaw.Result, Res: &command.PingResult{}}
	event := &Response{Event: &JobEvent{Job: 3, State: "done", Cmd: "solve g l"}}
	for _, c := range []struct{ send, want *Request }{
		{req, reqGeneral}, {reqRaw, reqBoth}, {reqTyped, reqBoth}, {reqBoth, reqBoth}, {hello, hello},
	} {
		if err := EncodeRequest(&buf, c.send); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(&buf)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("request round trip = %+v, %v; want %+v", got, err, c.want)
		}
	}
	for _, c := range []struct{ send, want *Response }{
		{resp, resp}, {respRaw, respBoth}, {respTyped, respBoth}, {respBoth, respBoth}, {event, event},
	} {
		if err := EncodeResponse(&buf, c.send); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(&buf)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("response round trip = %+v, %v; want %+v", got, err, c.want)
		}
	}
	// A well-framed payload that is not JSON is a decode error, not EOF.
	if err := WriteFrame(&buf, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(&buf); err == nil || err == io.EOF {
		t.Errorf("DecodeRequest of a non-JSON frame = %v, want a decode error", err)
	}
}
