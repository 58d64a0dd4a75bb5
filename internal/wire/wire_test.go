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

// choppy hands a stream out in pieces of seeded sizes, failing every
// third read with nothing read — a read cut short by a deadline.
type choppy struct {
	data  []byte
	reads int
	seed  uint32
}

var errCut = errors.New("read cut short")

func (c *choppy) Read(p []byte) (int, error) {
	c.reads++
	if c.reads%3 == 0 {
		return 0, errCut
	}
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	c.seed = c.seed*1664525 + 1013904223
	n := min(len(p), len(c.data), 1+int(c.seed>>20)%5000)
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// TestFrameReaderResumesMidFrame: a FrameReader fed in arbitrary pieces,
// with reads cut short between them, yields exactly ReadFrame's payloads
// — the empty one and one larger than its buffer included — and refuses
// a declared length past MaxFrame.
func TestFrameReaderResumesMidFrame(t *testing.T) {
	var stream bytes.Buffer
	payloads := [][]byte{[]byte(`{"id":1}`), {}, bytes.Repeat([]byte("x"), 70000), []byte(`{"id":2}`)}
	for i := 0; i < 40; i++ {
		payloads = append(payloads, bytes.Repeat([]byte{byte('a' + i%26)}, i*97))
	}
	for _, p := range payloads {
		if err := WriteFrame(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint32(1); seed <= 20; seed++ {
		r := &choppy{data: bytes.Clone(stream.Bytes()), seed: seed}
		var f FrameReader
		for i, want := range payloads {
			for {
				got, ok, err := f.Next()
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d: frame %d = %d bytes, want %d", seed, i, len(got), len(want))
					}
					break
				}
				if err := f.Fill(r); err != nil && err != errCut {
					t.Fatalf("seed %d: frame %d: Fill = %v", seed, i, err)
				}
			}
		}
		if err := f.Fill(r); err != io.EOF && err != errCut {
			t.Errorf("seed %d: Fill past the last frame = %v", seed, err)
		}
	}

	var f FrameReader
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	f.Fill(bytes.NewReader(hdr[:]))
	if _, _, err := f.Next(); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("Next on an oversized declaration = %v, want ErrFrameTooBig", err)
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
