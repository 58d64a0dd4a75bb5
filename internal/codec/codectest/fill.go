// Package codectest draws the random values the codec's differential
// tests compare encoders on.  It is shared by the tests of every package
// that owns a planned type (codec, command, wire, job, auvm).
package codectest

import (
	"math"
	"math/rand"
	"reflect"
)

// pieces are what random strings are cut from: plain text, every class of
// byte the string escaper treats specially, and the runes it must not.
var pieces = []string{
	"a", "wing", "Z9", " ", "-", "job-7", "é", "世界", "😀", "\x7f", "\ufffd",
	`"`, `\`, "/", "<", ">", "&", "\u2028", "\u2029",
	"\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t",
	"\xff", "\xc0", "\xe2\x80", "\xf0\x9f\x98",
}

// floats are the values around which the float formatter changes its mind,
// and the ones it refuses.
var floats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 0.3, 200000, -50.5, 1e-9, 1.5e-9,
	1e-6, 9.999999e-7, 1e-7, 1e21, 9.99999e20, 1e22, 1.7976931348623157e308,
	5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 123456789.125,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

var ints = []int64{0, 1, -1, 7, 4096, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}

// Fill sets v, which must be settable, to a random value of its type:
// about one field in five stays zero (so every omitempty field is seen
// both ways), slices and maps are nil, empty or short, and scalars are
// drawn from the edge cases above as often as from the whole range.
// Interface-typed and []byte fields are left for the caller to set.
func Fill(rng *rand.Rand, v reflect.Value) {
	if rng.Intn(5) == 0 {
		v.SetZero()
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := ints[rng.Intn(len(ints))]
		if rng.Intn(2) == 0 {
			x = int64(rng.Uint64())
		}
		if v.OverflowInt(x) {
			x = int64(int8(x))
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := rng.Uint64() >> rng.Intn(64)
		if rng.Intn(4) == 0 {
			x = math.MaxUint64
		}
		if v.OverflowUint(x) {
			x = uint64(uint8(x))
		}
		v.SetUint(x)
	case reflect.Float64:
		switch rng.Intn(4) {
		case 0:
			v.SetFloat(floats[rng.Intn(len(floats))])
		case 1: // any bit pattern: subnormals, huge exponents, the odd NaN
			v.SetFloat(math.Float64frombits(rng.Uint64()))
		case 2: // 1e-7 … 1e22, where 'f' and 'e' trade places
			v.SetFloat((rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-7)))
		default:
			v.SetFloat(float64(rng.Intn(4001)-2000) / 8)
		}
	case reflect.String:
		s := ""
		for n := rng.Intn(4); n > 0; n-- {
			s += pieces[rng.Intn(len(pieces))]
		}
		v.SetString(s)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return
		}
		n := rng.Intn(4) // 0 is empty but not nil
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			Fill(rng, s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for n := rng.Intn(4); n > 0; n-- {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			Fill(rng, key)
			Fill(rng, val)
			m.SetMapIndex(key, val)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		Fill(rng, p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				Fill(rng, v.Field(i))
			}
		}
	}
}
