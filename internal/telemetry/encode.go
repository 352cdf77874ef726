package telemetry

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// appendEvent appends the JSON encoding of ev to dst. The bytes are exactly
// what encoding/json.Marshal produces for the Event — field order, omitempty,
// sorted map keys, float format and HTML-safe string escaping — and it fails
// exactly where Marshal fails (a NaN or Inf timestamp, duration or float
// arg). Arg values of the types the instrumentation emits (string, int,
// int64, float64, bool, []int, map[string]any) are encoded inline; any other
// type goes through json.Marshal, as does nesting deeper than maxInlineDepth.
// On error dst is returned with unspecified trailing bytes.
func appendEvent(dst []byte, ev *Event) ([]byte, error) {
	var err error
	dst = append(dst, `{"name":`...)
	dst = appendString(dst, ev.Name)
	if ev.Cat != "" {
		dst = append(dst, `,"cat":`...)
		dst = appendString(dst, ev.Cat)
	}
	dst = append(dst, `,"ph":`...)
	dst = appendString(dst, ev.Ph)
	dst = append(dst, `,"ts":`...)
	if dst, err = appendFloat(dst, ev.Ts); err != nil {
		return dst, err
	}
	if ev.Dur != nil {
		dst = append(dst, `,"dur":`...)
		if dst, err = appendFloat(dst, *ev.Dur); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `,"pid":`...)
	dst = strconv.AppendInt(dst, int64(ev.Pid), 10)
	dst = append(dst, `,"tid":`...)
	dst = strconv.AppendInt(dst, int64(ev.Tid), 10)
	if ev.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = appendString(dst, ev.ID)
	}
	if ev.Scope != "" {
		dst = append(dst, `,"s":`...)
		dst = appendString(dst, ev.Scope)
	}
	if len(ev.Args) > 0 {
		dst = append(dst, `,"args":`...)
		if dst, err = appendMap(dst, ev.Args, 0); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// maxInlineDepth bounds the recursion of nested arg maps; deeper values (and
// cyclic ones, which json.Marshal rejects) are handed to json.Marshal.
const maxInlineDepth = 32

// appendMap encodes m as a JSON object with keys in sorted order.
func appendMap(dst []byte, m map[string]any, depth int) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	if depth >= maxInlineDepth {
		return appendMarshal(dst, m)
	}
	var buf [16]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	var err error
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, k)
		dst = append(dst, ':')
		if dst, err = appendValue(dst, m[k], depth+1); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendValue encodes one arg value.
func appendValue(dst []byte, v any, depth int) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return appendString(dst, x), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case float64:
		return appendFloat(dst, x)
	case bool:
		return strconv.AppendBool(dst, x), nil
	case []int:
		if x == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, n := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(n), 10)
		}
		return append(dst, ']'), nil
	case map[string]any:
		return appendMap(dst, x, depth)
	}
	return appendMarshal(dst, v)
}

// appendMarshal is the encoding/json fallback for values appendValue does
// not encode inline.
func appendMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// appendFloat formats f as encoding/json does: shortest 'f' form, switching
// to exponent form below 1e-6 or at 1e21 and above, with a two-digit
// negative exponent trimmed to one ("1e-07" becomes "1e-7"). NaN and Inf are
// errors, as they are for json.Marshal.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string with encoding/json's HTML-safe
// escaping: control characters, '"', '\\', '<', '>' and '&' are escaped,
// invalid UTF-8 becomes U+FFFD, and U+2028/U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
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
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
