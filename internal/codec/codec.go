// Package codec is the JSON codec of the service path: the command and
// result bodies, their envelopes, the wire frames and the job journal
// record are all written — and, when they arrive in the form it writes,
// read — by one mechanism driven by a per-type field plan.
//
// A Plan is compiled once from a struct's reflect.Type: per field the JSON
// key, the field index, the kind and omitempty, exactly as encoding/json
// derives them from the same tags.  A kind the planner does not know is a
// panic at compile time, never a silent slow path.
//
// Append writes a value byte for byte as encoding/json would: field
// order, omitempty, null for nil slices, maps and pointers, sorted map
// keys, the HTML-safe string escaper, and floatEncoder's format rule.
// The encoding/json encoder is kept in codec_test.go as the oracle of a
// differential test.
//
// Decode is a single pass that accepts the canonical form only — the exact
// bytes Append writes, restricted to strings that need no unescaping — and
// answers "not canonical" for everything else.  It never answers
// "invalid": a caller whose input is declined decodes it with
// encoding/json, which keeps defining what is accepted and every error
// text.  Decode has only to be sound: whenever it accepts, encoding/json
// accepts the same bytes and yields an equal value.
package codec

import (
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Variant is the codec of one interface type T.  The planner cannot see
// through an interface, so the package that owns the type supplies both
// directions: Append writes a non-nil T, Decode reads one into a *T under
// Plan.Decode's contract (canonical bytes only, ok false for anything else).
type Variant struct {
	Type   reflect.Type
	Append func(dst []byte, v any) ([]byte, error)
	Decode func(data []byte, into any) (rest []byte, ok bool)
}

// Plan is the compiled codec of one struct type.
type Plan struct{ root *node }

type kind uint8

const (
	kindBool kind = iota
	kindInt
	kindUint
	kindFloat
	kindString
	kindSlice
	kindMap
	kindPointer
	kindStruct
	kindRaw
)

// node is the plan of one Go type.
type node struct {
	kind   kind
	typ    reflect.Type
	elem   *node // slice element, map value, pointer target
	fields []field
}

// field is the plan of one struct field.
type field struct {
	key       []byte // ,"name": — the comma is dropped for the first field written
	index     int
	omitempty bool
	node      *node
	// typed is the index of the field's typed twin, -1 when it has none.
	// A json.RawMessage field may be paired with an interface-typed field
	// tagged `codec:"<the raw field's key>"`: Append writes the typed value
	// in the raw field's place when it is set, and Decode fills both — the
	// typed value and the bytes it was read from.
	typed   int
	variant *Variant
}

var (
	rawType           = reflect.TypeOf(json.RawMessage(nil))
	marshalerType     = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshalerType = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
)

// PlanOf compiles the plan of struct type t.  variants lists the codecs of
// the interface types t's typed twins use.  It panics on a type
// encoding/json would treat in a way the codec does not reproduce.
func PlanOf(t reflect.Type, variants ...Variant) *Plan {
	b := &builder{seen: map[reflect.Type]*node{}, variants: variants}
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("codec: %v is not a struct", t))
	}
	return &Plan{root: b.nodeOf(t)}
}

type builder struct {
	seen     map[reflect.Type]*node
	variants []Variant
}

func (b *builder) nodeOf(t reflect.Type) *node {
	if n := b.seen[t]; n != nil {
		return n
	}
	n := &node{typ: t}
	b.seen[t] = n
	if t == rawType {
		n.kind = kindRaw
		return n
	}
	for _, m := range []reflect.Type{marshalerType, textMarshalerType} {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			panic(fmt.Sprintf("codec: %v marshals itself", t))
		}
	}
	switch t.Kind() {
	case reflect.Bool:
		n.kind = kindBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n.kind = kindInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n.kind = kindUint
	case reflect.Float64:
		n.kind = kindFloat
	case reflect.String:
		n.kind = kindString
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			panic(fmt.Sprintf("codec: no plan for byte slice %v", t))
		}
		n.kind, n.elem = kindSlice, b.nodeOf(t.Elem())
	case reflect.Map:
		if t.Key().Kind() != reflect.String {
			panic(fmt.Sprintf("codec: no plan for map key %v", t.Key()))
		}
		b.nodeOf(t.Key()) // refuses a key type that marshals itself
		n.kind, n.elem = kindMap, b.nodeOf(t.Elem())
	case reflect.Pointer:
		if t.Elem().Kind() != reflect.Struct {
			panic(fmt.Sprintf("codec: no plan for pointer %v", t))
		}
		n.kind, n.elem = kindPointer, b.nodeOf(t.Elem())
	case reflect.Struct:
		n.kind = kindStruct
		b.fieldsOf(n)
	default:
		panic(fmt.Sprintf("codec: no plan for %v", t))
	}
	return n
}

// fieldsOf fills a struct node's fields in declaration order, which is the
// order encoding/json writes them in.
func (b *builder) fieldsOf(n *node) {
	t := n.typ
	byKey := map[string]int{}
	twins := map[string]int{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			panic(fmt.Sprintf("codec: no plan for embedded field %v.%s", t, sf.Name))
		}
		if key := sf.Tag.Get("codec"); key != "" {
			twins[key] = i
			continue
		}
		tag := sf.Tag.Get("json")
		if !sf.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = sf.Name
		}
		if opts != "" && opts != "omitempty" {
			panic(fmt.Sprintf("codec: no plan for tag option %q on %v.%s", opts, t, sf.Name))
		}
		if _, dup := byKey[name]; dup {
			panic(fmt.Sprintf("codec: %v has two fields keyed %q", t, name))
		}
		byKey[name] = len(n.fields)
		n.fields = append(n.fields, field{
			key:   append(appendString([]byte{','}, name), ':'),
			index: i, omitempty: opts == "omitempty", node: b.nodeOf(sf.Type), typed: -1,
		})
	}
	for key, i := range twins {
		sf := t.Field(i)
		at, ok := byKey[key]
		if !ok || n.fields[at].node.kind != kindRaw || !sf.IsExported() {
			panic(fmt.Sprintf("codec: %v.%s must be exported and name a json.RawMessage field's key", t, sf.Name))
		}
		f := &n.fields[at]
		f.typed = i
		for k := range b.variants {
			if b.variants[k].Type == sf.Type {
				f.variant = &b.variants[k]
			}
		}
		if f.variant == nil {
			panic(fmt.Sprintf("codec: no variant for %v.%s (%v)", t, sf.Name, sf.Type))
		}
	}
}

// Append appends v, a value of the plan's struct type, to dst.  It fails
// only on a value JSON cannot carry (a NaN or infinite float, raw bytes
// that are not JSON) or one a Variant refuses, with encoding/json's text;
// dst comes back at its original length then.
func (p *Plan) Append(dst []byte, v reflect.Value) ([]byte, error) {
	out, err := p.root.append(dst, v)
	if err != nil {
		return dst, err
	}
	return out, nil
}

func (n *node) append(dst []byte, v reflect.Value) ([]byte, error) {
	switch n.kind {
	case kindBool:
		return strconv.AppendBool(dst, v.Bool()), nil
	case kindInt:
		return strconv.AppendInt(dst, v.Int(), 10), nil
	case kindUint:
		return strconv.AppendUint(dst, v.Uint(), 10), nil
	case kindFloat:
		return appendFloat(dst, v.Float())
	case kindString:
		return appendString(dst, v.String()), nil
	case kindRaw:
		return appendRaw(dst, v.Bytes())
	}
	if n.kind != kindStruct && v.IsNil() {
		return append(dst, "null"...), nil
	}
	var err error
	switch n.kind {
	case kindPointer:
		return n.elem.append(dst, v.Elem())
	case kindSlice:
		dst = append(dst, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = n.elem.append(dst, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return append(dst, ']'), nil
	case kindMap:
		type entry struct {
			key string
			val reflect.Value
		}
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			entries = append(entries, entry{it.Key().String(), it.Value()})
		}
		slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
		dst = append(dst, '{')
		for i, e := range entries {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendString(dst, e.key), ':')
			if dst, err = n.elem.append(dst, e.val); err != nil {
				return nil, err
			}
		}
		return append(dst, '}'), nil
	}
	dst = append(dst, '{')
	first := true
	for i := range n.fields {
		f := &n.fields[i]
		fv := v.Field(f.index)
		var typed reflect.Value
		if f.typed >= 0 {
			typed = v.Field(f.typed)
		}
		if f.omitempty && f.node.empty(fv) && (f.typed < 0 || typed.IsNil()) {
			continue
		}
		if first {
			dst = append(dst, f.key[1:]...)
			first = false
		} else {
			dst = append(dst, f.key...)
		}
		switch {
		case f.typed < 0:
			dst, err = f.node.append(dst, fv)
		case !typed.IsNil():
			dst, err = f.variant.Append(dst, typed.Interface())
		default:
			dst, err = appendRaw(dst, fv.Bytes())
		}
		if err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

// empty is encoding/json's isEmptyValue.
func (n *node) empty(v reflect.Value) bool {
	switch n.kind {
	case kindBool:
		return !v.Bool()
	case kindInt:
		return v.Int() == 0
	case kindUint:
		return v.Uint() == 0
	case kindFloat:
		return v.Float() == 0
	case kindString, kindSlice, kindMap, kindRaw:
		return v.Len() == 0
	case kindPointer:
		return v.IsNil()
	}
	return false
}

// appendFloat is encoding/json's floatEncoder for float64.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// plain marks the ASCII bytes that stand for themselves inside a string:
// encoding/json's htmlSafeSet.
var plain = func() (set [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		set[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return set
}()

const hex = "0123456789abcdef"

// appendString is encoding/json's appendString with escapeHTML set.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendRaw embeds bytes a caller encoded earlier.  encoding/json validates
// a RawMessage, strips its white space and HTML-escapes its strings; bytes
// already in that form — whatever Append itself wrote — go in as they are.
func appendRaw(dst, raw []byte) ([]byte, error) {
	if len(raw) == 0 {
		return append(dst, "null"...), nil
	}
	if rest, ok := skipValue(raw, 0); ok && len(rest) == 0 {
		return append(dst, raw...), nil
	}
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return nil, fmt.Errorf("json: error calling MarshalJSON for type json.RawMessage: %w", err)
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	return append(dst, escaped.Bytes()...), nil
}

// maxSkipDepth bounds skipValue's recursion; no envelope nests this deep.
const maxSkipDepth = 32

// skipValue steps over one JSON value of any shape, provided it is written
// compactly with strings that need no escape either way (scanString's
// form): ok is false for anything else, valid or not.
func skipValue(data []byte, depth int) (rest []byte, ok bool) {
	if len(data) == 0 || depth > maxSkipDepth {
		return nil, false
	}
	switch c := data[0]; c {
	case '{', '[':
		shut := c + 2 // the closing bracket sits two past the opening one in ASCII
		if data = data[1:]; len(data) > 0 && data[0] == shut {
			return data[1:], true
		}
		for {
			if c == '{' {
				n, ok := plainString(data)
				if !ok || n == len(data) || data[n] != ':' {
					return nil, false
				}
				data = data[n+1:]
			}
			if data, ok = skipValue(data, depth+1); !ok || len(data) == 0 {
				return nil, false
			}
			if data[0] == shut {
				return data[1:], true
			}
			if data[0] != ',' {
				return nil, false
			}
			data = data[1:]
		}
	case '"':
		n, ok := plainString(data)
		return data[min(n, len(data)):], ok
	case 't':
		return bytes.CutPrefix(data, []byte("true"))
	case 'f':
		return bytes.CutPrefix(data, []byte("false"))
	case 'n':
		return bytes.CutPrefix(data, []byte("null"))
	}
	// A number, by JSON's grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
	digits := func() bool {
		n := 0
		for ; n < len(data) && '0' <= data[n] && data[n] <= '9'; n++ {
		}
		data = data[n:]
		return n > 0
	}
	data, _ = bytes.CutPrefix(data, []byte("-"))
	if len(data) > 1 && data[0] == '0' && '0' <= data[1] && data[1] <= '9' {
		return nil, false
	}
	if !digits() {
		return nil, false
	}
	if len(data) > 0 && data[0] == '.' {
		if data = data[1:]; !digits() {
			return nil, false
		}
	}
	if len(data) > 0 && (data[0] == 'e' || data[0] == 'E') {
		if data = data[1:]; len(data) > 0 && (data[0] == '+' || data[0] == '-') {
			data = data[1:]
		}
		if !digits() {
			return nil, false
		}
	}
	return data, true
}

// Decode reads one canonical value from the front of data into v, a
// settable zero value of the plan's struct type, and returns what follows
// it.  ok is false when data does not start with the canonical form of a
// value; v is then partly written and must be discarded.
func (p *Plan) Decode(data []byte, v reflect.Value) (rest []byte, ok bool) {
	return p.root.decode(data, v)
}

func (n *node) decode(data []byte, v reflect.Value) ([]byte, bool) {
	switch n.kind {
	case kindBool:
		if rest, ok := bytes.CutPrefix(data, []byte("true")); ok {
			v.SetBool(true)
			return rest, true
		}
		return bytes.CutPrefix(data, []byte("false"))
	case kindInt:
		neg := len(data) > 0 && data[0] == '-'
		if neg {
			data = data[1:]
		}
		u, rest, ok := scanDigits(data)
		if !ok || u > 1<<63 || (neg && u == 0) || (!neg && u == 1<<63) {
			return nil, false
		}
		x := int64(u)
		if neg {
			x = -x
		}
		if v.OverflowInt(x) {
			return nil, false
		}
		v.SetInt(x)
		return rest, true
	case kindUint:
		u, rest, ok := scanDigits(data)
		if !ok || v.OverflowUint(u) {
			return nil, false
		}
		v.SetUint(u)
		return rest, true
	case kindFloat:
		f, rest, ok := scanFloat(data)
		v.SetFloat(f)
		return rest, ok
	case kindString:
		s, rest, ok := scanString(data)
		v.SetString(s)
		return rest, ok
	case kindRaw:
		return nil, false // a raw field is read through its typed twin only
	case kindStruct:
		return n.decodeStruct(data, v)
	}
	if rest, ok := bytes.CutPrefix(data, []byte("null")); ok {
		return rest, true
	}
	if n.kind == kindPointer {
		p := reflect.New(n.elem.typ)
		v.Set(p)
		return n.elem.decode(data, p.Elem())
	}
	if n.kind == kindSlice {
		return n.decodeSlice(data, v)
	}
	return n.decodeMap(data, v)
}

// opened steps past an opening bracket and, when the value is empty, its
// closing one.
func opened(data []byte, open, shut byte) (rest []byte, empty, ok bool) {
	if len(data) < 2 || data[0] != open {
		return nil, false, false
	}
	if data[1] == shut {
		return data[2:], true, true
	}
	return data[1:], false, true
}

// closed steps past what follows an element: a comma, or the closing
// bracket.
func closed(data []byte, shut byte) (rest []byte, done, ok bool) {
	if len(data) == 0 || (data[0] != ',' && data[0] != shut) {
		return nil, false, false
	}
	return data[1:], data[0] == shut, true
}

func (n *node) decodeSlice(data []byte, v reflect.Value) ([]byte, bool) {
	data, done, ok := opened(data, '[', ']')
	v.Set(reflect.MakeSlice(n.typ, 0, 0))
	for i := 0; ok && !done; i++ {
		v.Grow(1)
		v.SetLen(i + 1)
		if data, ok = n.elem.decode(data, v.Index(i)); ok {
			data, done, ok = closed(data, ']')
		}
	}
	return data, ok
}

// decodeMap wants the keys in the order Append writes them: ascending, so
// each once.
func (n *node) decodeMap(data []byte, v reflect.Value) ([]byte, bool) {
	data, done, ok := opened(data, '{', '}')
	v.Set(reflect.MakeMap(n.typ))
	for last, i := "", 0; ok && !done; i++ {
		var key string
		key, data, ok = scanString(data)
		if !ok || (i > 0 && key <= last) || len(data) == 0 || data[0] != ':' {
			return nil, false
		}
		last = key
		val := reflect.New(n.elem.typ).Elem()
		if data, ok = n.elem.decode(data[1:], val); ok {
			v.SetMapIndex(reflect.ValueOf(key).Convert(n.typ.Key()), val)
			data, done, ok = closed(data, '}')
		}
	}
	return data, ok
}

// decodeStruct reads the fields in plan order.  A field whose key is not
// next was omitted, which only an omitempty field may be; a key out of
// order, repeated or unknown is left standing before the closing brace,
// and an omitempty field present with an empty value is not something
// Append writes.
func (n *node) decodeStruct(data []byte, v reflect.Value) ([]byte, bool) {
	if len(data) == 0 || data[0] != '{' {
		return nil, false
	}
	data = data[1:]
	first := true
	for i := range n.fields {
		f := &n.fields[i]
		key := f.key
		if first {
			key = key[1:]
		}
		rest, ok := bytes.CutPrefix(data, key)
		if !ok {
			if !f.omitempty {
				return nil, false
			}
			continue
		}
		fv := v.Field(f.index)
		if f.typed < 0 {
			rest, ok = f.node.decode(rest, fv)
		} else {
			from := rest
			if rest, ok = f.variant.Decode(from, v.Field(f.typed).Addr().Interface()); ok {
				read := len(from) - len(rest)
				fv.SetBytes(from[:read:read])
			}
		}
		if !ok || (f.omitempty && f.node.empty(fv)) {
			return nil, false
		}
		data, first = rest, false
	}
	if len(data) == 0 || data[0] != '}' {
		return nil, false
	}
	return data[1:], true
}

// scanDigits reads a canonical unsigned integer: no sign, no leading zero.
func scanDigits(data []byte) (u uint64, rest []byte, ok bool) {
	i := 0
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		d := uint64(data[i] - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, nil, false
		}
		u = u*10 + d
	}
	if i == 0 || (data[0] == '0' && i > 1) {
		return 0, nil, false
	}
	return u, data[i:], true
}

// scanFloat reads a float written exactly as appendFloat writes it.
func scanFloat(data []byte) (f float64, rest []byte, ok bool) {
	i := 0
	for i < len(data) && (data[i] == '-' || data[i] == '+' || data[i] == '.' || data[i] == 'e' || ('0' <= data[i] && data[i] <= '9')) {
		i++
	}
	var buf [32]byte // the longest float64 is 24 bytes
	if i == 0 || i > len(buf) {
		return 0, nil, false
	}
	f, err := strconv.ParseFloat(string(data[:i]), 64)
	if err != nil {
		return 0, nil, false
	}
	if canon, err := appendFloat(buf[:0], f); err != nil || !bytes.Equal(canon, data[:i]) {
		return 0, nil, false
	}
	return f, data[i:], true
}

// scanString reads a string that needs no unescaping and that appendString
// would write back unchanged.
func scanString(data []byte) (s string, rest []byte, ok bool) {
	n, ok := plainString(data)
	if !ok {
		return "", nil, false
	}
	return string(data[1 : n-1]), data[n:], true
}

// plainString measures the quoted string at the front of data, quotes
// included, provided every byte of it stands for itself both ways: no
// escape to undo, nothing appendString would escape.
func plainString(data []byte) (n int, ok bool) {
	if len(data) == 0 || data[0] != '"' {
		return 0, false
	}
	for i := 1; i < len(data); {
		c := data[i]
		switch {
		case c == '"':
			return i + 1, true
		case c < utf8.RuneSelf:
			if !plain[c] {
				return 0, false
			}
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
				return 0, false
			}
			i += size
		}
	}
	return 0, false
}
