package spvm

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hgraph"
)

// sampleMessages returns one well-formed instance of each message type.
func sampleMessages() []*Message {
	return []*Message{
		{Type: MsgInitiate, TaskType: "cg-worker", Replications: 8, Parent: 1, Params: []float64{64, 1e-8}},
		{Type: MsgTerminate, Task: 5, Parent: 1},
		{Type: MsgLoadCode, CodeName: "cg-worker", CodeWords: 512, LocalWords: 128},
	}
}

func TestMsgTypeStrings(t *testing.T) {
	want := map[MsgType]string{
		MsgInitiate: "initiate", MsgTerminate: "terminate", MsgLoadCode: "load-code",
	}
	for ty, s := range want {
		if ty.String() != s {
			t.Errorf("MsgType %d String = %q, want %q", ty, ty.String(), s)
		}
	}
	if !strings.Contains(MsgType(99).String(), "99") {
		t.Error("unknown MsgType string")
	}
}

func TestEncodeDecodeRoundTripAllTypes(t *testing.T) {
	for _, m := range sampleMessages() {
		b, err := m.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s round trip:\n in: %+v\nout: %+v", m.Type, m, got)
		}
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	if _, err := (&Message{Type: 0}).Encode(); !errors.Is(err, ErrBadMessage) {
		t.Error("type 0 encoded")
	}
	if _, err := (&Message{Type: 99}).Encode(); !errors.Is(err, ErrBadMessage) {
		t.Error("type 99 encoded")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},
		{0xFF, 0xFF, 0x01},               // bad magic
		{0x02, 0xFE, 0x63},               // unknown type 0x63
		{0x02, 0xFE},                     // missing type
		{0x02, 0xFE, byte(MsgTerminate)}, // truncated payload
		{0x02, 0xFE, byte(MsgInitiate), 0xFF, 0xFF, 0xFF, 0xFF}, // huge string len
	}
	for i, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrBadMessage) {
			t.Errorf("garbage %d decoded without ErrBadMessage: %v", i, err)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b, _ := (&Message{Type: MsgTerminate, Task: 1}).Encode()
	b = append(b, 0x00)
	if _, err := Decode(b); !errors.Is(err, ErrBadMessage) {
		t.Error("trailing bytes accepted")
	}
}

func TestWordsPositiveAndTracksPayload(t *testing.T) {
	small := &Message{Type: MsgTerminate, Task: 1}
	big := &Message{Type: MsgInitiate, TaskType: "w", Replications: 1, Params: make([]float64, 100)}
	if small.Words() <= 0 {
		t.Error("Words() not positive")
	}
	if big.Words() <= small.Words() {
		t.Errorf("100-param message (%d words) not larger than terminate (%d words)",
			big.Words(), small.Words())
	}
}

func TestEveryMessageValidatesAgainstFormalGrammar(t *testing.T) {
	g := hgraph.SPVMMessageGrammar()
	for _, m := range sampleMessages() {
		if errs := g.Validate(m.ToHGraph()); len(errs) > 0 {
			t.Errorf("%s: live message violates formal grammar: %v", m.Type, errs)
		}
	}
}

func TestMessageStringsDescriptive(t *testing.T) {
	for _, m := range sampleMessages() {
		s := m.String()
		if !strings.Contains(s, m.Type.String()) {
			t.Errorf("String() = %q missing type name %q", s, m.Type.String())
		}
	}
	if !strings.Contains((&Message{Type: 42}).String(), "42") {
		t.Error("unknown type String")
	}
}

// Property: encode/decode is the identity on randomly parameterised
// messages of every type.
func TestQuickRoundTrip(t *testing.T) {
	f := func(tyRaw uint8, s1 string, a, b int64, params []float64) bool {
		ty := MsgType(tyRaw%3) + 1
		for i, p := range params {
			if math.IsNaN(p) {
				params[i] = 0 // NaN != NaN breaks DeepEqual, not the codec
			}
		}
		if len(params) == 0 {
			params = nil // the codec decodes an empty list as nil
		}
		m := &Message{Type: ty}
		switch ty {
		case MsgInitiate:
			m.TaskType, m.Replications, m.Parent, m.Params = s1, a, TaskID(b), params
		case MsgTerminate:
			m.Task, m.Parent = TaskID(a), TaskID(b)
		case MsgLoadCode:
			m.CodeName, m.CodeWords, m.LocalWords = s1, a, b
		}
		enc, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics; it either round-trips
// from a valid encoding or returns ErrBadMessage.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		m, err := Decode(b)
		if err != nil {
			return errors.Is(err, ErrBadMessage)
		}
		return m != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
