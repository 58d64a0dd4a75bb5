package codec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/codec/codectest"
)

// The oracle of every test here is encoding/json itself: Append must write
// json.Marshal's bytes (or fail with its text), and whatever Decode accepts
// json.Unmarshal must accept and read as the same value.

type label string

type row struct {
	Name label `json:"name"`
	N    int   `json:"n,omitempty"`
}

// shape is the interface of the typed-twin tests; its one variant writes a
// circle as {"r":<R>}.
type shape interface{ isShape() }

type circle struct{ R int }

func (circle) isShape() {}

var shapeCodec = Variant{
	Type: reflect.TypeOf((*shape)(nil)).Elem(),
	Append: func(dst []byte, v any) ([]byte, error) {
		if v.(circle).R < 0 {
			return nil, fmt.Errorf("negative radius")
		}
		return append(fmt.Appendf(dst, `{"r":%d`, v.(circle).R), '}'), nil
	},
	Decode: func(data []byte, into any) ([]byte, bool) {
		var c circle
		n, err := fmt.Sscanf(string(data), `{"r":%d}`, &c.R)
		canon := fmt.Sprintf(`{"r":%d}`, c.R)
		if err != nil || n != 1 || !bytes.HasPrefix(data, []byte(canon)) {
			return nil, false
		}
		*into.(*shape) = c
		return data[len(canon):], true
	},
}

// everything has a field of every kind the planner knows, each both with
// and without omitempty, and everything Decode can read back.
type everything struct {
	B      bool
	BO     bool `json:"bo,omitempty"`
	I      int
	I8     int8
	I64    int64   `json:"i64,omitempty"`
	U      uint64  `json:"u"`
	U16    uint16  `json:",omitempty"`
	F      float64 `json:"f"`
	FO     float64 `json:"fo,omitempty"`
	S      string
	SO     string `json:"so,omitempty"`
	Named  label
	Ints   []int
	IntsO  []int `json:"ints_o,omitempty"`
	Strs   []string
	Floats []float64
	Rows   []row
	RowsO  []row `json:"rows_o,omitempty"`
	M      map[string]int
	MO     map[string]int `json:"mo,omitempty"`
	MS     map[label]row
	P      *row
	PO     *row `json:"po,omitempty"`
	In     row
	Odd    int `json:"<k&>"`
	hidden int
	Dash   int             `json:"-"`
	Shape  json.RawMessage `json:"shape,omitempty"`
	Typed  shape           `json:"-" codec:"shape"`
	Shape2 json.RawMessage `json:"shape2"`
	Typed2 shape           `json:"-" codec:"shape2"`
}

var everythingPlan = PlanOf(reflect.TypeOf(everything{}), shapeCodec)

// oracle is the replaced encoder: json.Marshal, with each typed twin first
// encoded into its raw field the way callers used to build a RawMessage.
func oracle(e everything) ([]byte, error) {
	for _, twin := range []struct {
		raw   *json.RawMessage
		typed *shape
	}{{&e.Shape, &e.Typed}, {&e.Shape2, &e.Typed2}} {
		if *twin.typed != nil {
			raw, err := shapeCodec.Append(nil, *twin.typed)
			if err != nil {
				return nil, err
			}
			*twin.raw, *twin.typed = raw, nil
		}
	}
	return json.Marshal(e)
}

// fillShapes sets the twins of e; bad picks the one (0 or 1, -1 for none)
// that gets a value no encoder accepts.
func fillShapes(rng *rand.Rand, e *everything, bad int) {
	for i, twin := range []struct {
		raw   *json.RawMessage
		typed *shape
	}{{&e.Shape, &e.Typed}, {&e.Shape2, &e.Typed2}} {
		switch {
		case i == bad && rng.Intn(2) == 0:
			*twin.typed = circle{R: -1}
		case i == bad:
			*twin.raw = json.RawMessage(`{"r":`)
		}
		if i == bad {
			continue
		}
		switch rng.Intn(4) {
		case 0: // neither
		case 1:
			*twin.typed = circle{R: rng.Intn(100)}
		case 2: // canonical bytes: embedded as they are
			*twin.raw = json.RawMessage(fmt.Sprintf(`{"r":%d}`, rng.Intn(100)))
		case 3: // valid but not canonical: compacted and escaped
			*twin.raw = json.RawMessage(` { "r" : 1.0, "x":"<a&b> ` + "\u2028" + `" } `)
		}
	}
}

// TestCodecMatchesEncodingJSON is the seeded differential: random values of
// a struct with every planned kind encode to json.Marshal's bytes or fail
// with its text, and every encoding Decode accepts reads back as the value
// json.Unmarshal reads.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accepted, failed := 0, 0
	for i := 0; i < 4000; i++ {
		// One source of failure a value, so that which error comes first is
		// not in question: a non-finite float somewhere, or one bad twin.
		var e everything
		if bad := rng.Intn(16); bad < 2 {
			fillShapes(rng, &e, bad)
		} else {
			codectest.Fill(rng, reflect.ValueOf(&e).Elem())
			fillShapes(rng, &e, -1)
		}
		got, gerr := everythingPlan.Append(nil, reflect.ValueOf(&e).Elem())
		want, werr := oracle(e)
		if gerr != nil || werr != nil {
			failed++
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("value %d: codec error %v, encoding/json error %v\n%+v", i, gerr, werr, e)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("value %d:\n codec %s\n  json %s", i, got, want)
		}
		if checkSound(t, everythingPlan, got, &everything{}, &everything{}) {
			accepted++
		} else if !bytes.ContainsAny(got, `\`) {
			t.Fatalf("value %d: Decode declined its own encoder's output with no escape in it: %s", i, got)
		}
	}
	if accepted < 100 || failed < 100 {
		t.Errorf("%d values decoded canonically, %d failed to encode: the generator no longer covers both", accepted, failed)
	}
}

// checkSound decodes data both ways into the two fresh values and reports
// whether the canonical decoder accepted it.  When it does, encoding/json
// must too, the values must be equal, and re-encoding must give data back.
func checkSound(t *testing.T, plan *Plan, data []byte, canon, general any) bool {
	t.Helper()
	cv := reflect.ValueOf(canon).Elem()
	rest, ok := plan.Decode(data, cv)
	if !ok || len(rest) > 0 {
		return false
	}
	if err := json.Unmarshal(data, general); err != nil {
		t.Fatalf("Decode accepted what encoding/json refuses (%v): %s", err, data)
	}
	// The typed twins are the codec's own; encoding/json leaves them nil.
	for i := 0; i < cv.NumField(); i++ {
		if cv.Type().Field(i).Tag.Get("codec") != "" {
			cv.Field(i).SetZero()
		}
	}
	if !reflect.DeepEqual(canon, general) {
		t.Fatalf("Decode and encoding/json disagree on %s:\n codec %+v\n  json %+v", data, canon, general)
	}
	if back, err := plan.Append(nil, cv); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("Decode accepted a form Append does not write:\n  in %s\n out %s (%v)", data, back, err)
	}
	return true
}

type small struct {
	ID   int64          `json:"id"`
	Name string         `json:"name,omitempty"`
	F    float64        `json:"f,omitempty"`
	Tags []string       `json:"tags,omitempty"`
	M    map[string]int `json:"m,omitempty"`
	P    *row           `json:"p,omitempty"`
	U    uint8          `json:"u,omitempty"`
}

// TestDecodeAcceptsCanonicalFormOnly pins the canonical form from both
// sides: what Decode reads in one pass, and the valid spellings it leaves
// to encoding/json.
func TestDecodeAcceptsCanonicalFormOnly(t *testing.T) {
	plan := PlanOf(reflect.TypeOf(small{}))
	for _, in := range []string{
		`{"id":7}`,
		`{"id":-9223372036854775808}`,
		`{"id":0,"name":"wing é 世","f":-0.5,"tags":["a","b"],"m":{"a":1,"b":-2},"p":{"name":"x"},"u":255}`,
		`{"id":1,"f":1e-7}`,
		`{"id":1,"f":1.5e+21}`,
		`{"id":1,"f":123456789.125}`,
	} {
		if !checkSound(t, plan, []byte(in), &small{}, &small{}) {
			t.Errorf("Decode declined canonical %s", in)
		}
	}
	for _, in := range []string{
		``, `{`, `{}`, `null`, `[]`, `{"id":7`, `{"id":}`,
		` {"id":7}`, `{ "id":7}`, `{"id": 7}`, `{"id":7 }`, "{\"id\":7\n}",
		`{"id":07}`, `{"id":-0}`, `{"id":+7}`, `{"id":1.0}`, `{"id":1e2}`, `{"id":"7"}`, `{"id":true}`,
		`{"id":9223372036854775808}`, `{"id":-9223372036854775809}`, `{"id":99999999999999999999}`,
		`{"id":7,"id":8}`, `{"name":"x","id":7}`, `{"id":7,"nope":1}`, `{"ID":7}`,
		`{"id":7,"name":""}`, `{"id":7,"name":"a\u0062"}`, `{"id":7,"name":"a\"b"}`,
		`{"id":7,"name":"a<b"}`, `{"id":7,"name":"a&b"}`, "{\"id\":7,\"name\":\"a\u2028b\"}",
		"{\"id\":7,\"name\":\"a\xffb\"}", "{\"id\":7,\"name\":\"a\tb\"}", `{"id":7,"name":"x}`,
		`{"id":7,"f":0.50}`, `{"id":7,"f":5e-1}`, `{"id":7,"f":1E-7}`, `{"id":7,"f":1e-07}`, `{"id":7,"f":.5}`,
		`{"id":7,"f":0}`, `{"id":7,"f":-0}`, `{"id":7,"f":1e999}`, `{"id":7,"f":NaN}`, `{"id":7,"f":0x1p-2}`,
		`{"id":7,"tags":[]}`, `{"id":7,"tags":null}`, `{"id":7,"tags":["a",]}`, `{"id":7,"tags":["a" ,"b"]}`, `{"id":7,"tags":["a"`,
		`{"id":7,"m":{}}`, `{"id":7,"m":{"b":1,"a":2}}`, `{"id":7,"m":{"a":1,"a":2}}`, `{"id":7,"m":{"a":1,}}`, `{"id":7,"m":{"a" :1}}`,
		`{"id":7,"p":null}`, `{"id":7,"p":{}}`, `{"id":7,"p":{"name":"x","n":0}}`,
		`{"id":7,"u":256}`, `{"id":7,"u":-1}`,
	} {
		var v small
		if rest, ok := plan.Decode([]byte(in), reflect.ValueOf(&v).Elem()); ok && len(rest) == 0 {
			t.Errorf("Decode accepted %s as %+v", in, v)
		}
	}
	// What follows a value is the caller's to judge.
	var v small
	if rest, ok := plan.Decode([]byte(`{"id":7}]]`), reflect.ValueOf(&v).Elem()); !ok || string(rest) != "]]" {
		t.Errorf(`Decode of {"id":7}]] = rest %q, ok %v; want the value and "]]" left over`, rest, ok)
	}
}

// TestPlanOfPanicsOnUnknownKinds: a field encoding/json would treat in a
// way the codec does not reproduce stops the program at init, it does not
// get a slow path.
func TestPlanOfPanicsOnUnknownKinds(t *testing.T) {
	type embedded struct{ row }
	for _, v := range []any{
		struct{ F float32 }{},
		struct{ B []byte }{},
		struct{ A [2]int }{},
		struct{ I any }{},
		struct{ S shape }{},
		struct{ T time.Time }{},
		struct{ P *int }{},
		struct{ M map[int]string }{},
		struct{ C chan int }{},
		struct {
			N int `json:"n,string"`
		}{},
		reflect.Zero(reflect.StructOf([]reflect.StructField{ // built here: vet refuses to compile it
			{Name: "A", Type: reflect.TypeOf(0), Tag: `json:"x"`},
			{Name: "B", Type: reflect.TypeOf(0), Tag: `json:"x"`},
		})).Interface(),
		struct {
			N int   `json:"n"`
			T shape `json:"-" codec:"n"`
		}{},
		struct {
			R json.RawMessage `json:"r"`
			T label           `json:"-" codec:"r"`
		}{},
		embedded{},
		7,
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.HasPrefix(fmt.Sprint(p), "codec: ") {
					t.Errorf("PlanOf(%T) = %v, want a codec panic", v, p)
				}
			}()
			PlanOf(reflect.TypeOf(v), shapeCodec)
		}()
	}
}

// TestRawBytesEmbedAsEncodingJSONEmbedsThem: bytes a caller encoded earlier
// are embedded as json.Marshal embeds a RawMessage, whether they take the
// as-they-are shortcut or not.
func TestRawBytesEmbedAsEncodingJSONEmbedsThem(t *testing.T) {
	type holder struct {
		R json.RawMessage `json:"r"`
		O json.RawMessage `json:"o,omitempty"`
	}
	plan := PlanOf(reflect.TypeOf(holder{}))
	deep := strings.Repeat(`[`, 40) + strings.Repeat(`]`, 40)
	for _, raw := range []string{
		``, `null`, `true`, `false`, `0`, `-0`, `7`, `-7.25`, `1e5`, `1E+5`, `1.5e-7`, `0.0`, `""`, `"x"`, `"é世"`,
		`{}`, `[]`, `[1,[2,{"a":null,"b":[true,false]}],"x"]`, `{"verb":"ping","body":{}}`, deep,
		`"a\"b"`, `"a\u0041"`, `"a<b"`, `"a&b"`, "\"a\u2028b\"", "\"a\xffb\"", "\"a\tb\"",
		` 7`, `7 `, `[1, 2]`, `{"a" :1}`, "{\n}", `01`, `-`, `1.`, `.5`, `1e`, `+1`, `1x`, `tru`, `nul`, `truee`,
		`[`, `[1,]`, `[1 2]`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{a:1}`, `{"a":1}}`, `"x`, `"\q"`, `7 8`,
	} {
		h := holder{R: json.RawMessage(raw), O: json.RawMessage(raw)}
		got, gerr := plan.Append(nil, reflect.ValueOf(&h).Elem())
		want, werr := json.Marshal(h)
		if raw == "" { // an empty but non-nil RawMessage: encoding/json fails on it, no caller builds one
			want, werr = json.Marshal(holder{})
		}
		if gerr != nil || werr != nil {
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Errorf("raw %q: codec error %v, encoding/json error %v", raw, gerr, werr)
			}
		} else if !bytes.Equal(got, want) {
			t.Errorf("raw %q:\n codec %s\n  json %s", raw, got, want)
		}
	}
}
