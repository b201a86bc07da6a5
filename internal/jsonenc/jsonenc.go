// Package jsonenc appends JSON values byte-for-byte as encoding/json
// writes them, without reflection: the shared appenders behind the
// response renderer (internal/viz's graph document, internal/server's
// bodies and NDJSON records) and the canonical request keys.
//
// The byte-identity contract follows encoding/json's Marshal with its
// default HTML escaping:
//
//   - strings escape '"', '\\', control bytes (\b \f \n \r \t by name,
//     the rest as \u00XX), '<', '>' and '&' as \u003c, \u003e and
//     \u0026, U+2028 and U+2029 as \u2028 and \u2029, and every
//     invalid UTF-8 byte as \ufffd;
//   - floats use the 'f' format, switching to 'e' below 1e-6 and from
//     1e21 on, with the exponent's leading zero dropped (1e-07 becomes
//     1e-7); NaN and infinities are refused with the
//     *json.UnsupportedValueError encoding/json returns.
//
// Callers own the rest of the contract: field order, omitempty, and
// null for nil slices against [] for empty ones.
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safe marks the ASCII bytes a JSON string carries unescaped under
// HTML escaping.
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		switch b {
		case '"', '\\', '<', '>', '&':
		default:
			t[b] = true
		}
	}
	return t
}()

// String appends s as a JSON string literal.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
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
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Strings appends ss as a compact JSON array of strings; nil is null.
func Strings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = String(dst, s)
	}
	return append(dst, ']')
}

// Int appends v in decimal.
func Int(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// Bool appends true or false.
func Bool(dst []byte, v bool) []byte { return strconv.AppendBool(dst, v) }

// Float appends f as encoding/json formats a float64. NaN and infinities
// return dst unchanged and the error encoding/json's Marshal returns.
func Float(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
