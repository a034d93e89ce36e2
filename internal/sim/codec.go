package sim

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// The report-line format is one JSON object per Reading, as its json
// tags define it: the encoding json.Marshal gives, one object per
// line (NDJSON). ParseReading and AppendReading are its only reader
// and writer: POST /v1/ingest on the router and the shards, the
// ingest journal, quarantine files, the load generator, rfprism-sim
// -stream and rfprismd -replay-file all go through them.

// ParseReading decodes one report line exactly as json.Unmarshal into
// a Reading would. Lines of the shape AppendReading writes — the known
// keys in lowercase, strings of printable ASCII without escapes,
// integers of at most 18 digits, no whitespace — take a scanner that
// uses no reflection. Every other line, valid or not, goes to
// json.Unmarshal, so every rejection and its message are
// encoding/json's.
func ParseReading(raw []byte) (Reading, error) {
	if rd, ok := parseCanonical(raw); ok {
		return rd, nil
	}
	var rd Reading
	if err := json.Unmarshal(raw, &rd); err != nil {
		return Reading{}, err
	}
	return rd, nil
}

// parseCanonical is ParseReading's fast path. It reports false for
// any line it does not fully understand and never decides that a line
// is invalid.
func parseCanonical(b []byte) (rd Reading, ok bool) {
	n := len(b)
	if n < 2 || b[0] != '{' || b[n-1] != '}' {
		return rd, false
	}
	i := 1
	for {
		// Key: a bare quoted name. An escaped or unknown name matches
		// no case below and falls back; a repeated one overwrites the
		// earlier value, as json.Unmarshal does.
		if b[i] != '"' {
			return rd, false
		}
		k := i + 1
		for k < n && b[k] != '"' {
			k++
		}
		if k+1 >= n || b[k+1] != ':' {
			return rd, false
		}
		key := b[i+1 : k]
		i = k + 2
		var end int
		switch string(key) {
		case "epc":
			if end = scanPlainString(b, i); end < 0 {
				return rd, false
			}
			rd.EPC = string(b[i+1 : end-1])
		case "antenna":
			var v int64
			if v, end = scanInt(b, i); end < 0 {
				return rd, false
			}
			rd.Antenna = int(v)
		case "channel":
			var v int64
			if v, end = scanInt(b, i); end < 0 {
				return rd, false
			}
			rd.Channel = int(v)
		case "t":
			var v int64
			if v, end = scanInt(b, i); end < 0 {
				return rd, false
			}
			rd.T = time.Duration(v)
		case "freqHz":
			if rd.FreqHz, end = scanFloat(b, i); end < 0 {
				return rd, false
			}
		case "phase":
			if rd.Phase, end = scanFloat(b, i); end < 0 {
				return rd, false
			}
		case "rssi":
			if rd.RSSI, end = scanFloat(b, i); end < 0 {
				return rd, false
			}
		default:
			return rd, false
		}
		// A value ends at the next member or at the closing brace.
		switch {
		case end == n-1:
			return rd, true
		case b[end] == ',':
			i = end + 1
		default:
			return rd, false
		}
	}
}

// scanPlainString returns the index just past a quoted string that
// starts at b[i] and holds only printable ASCII other than '"' and
// '\\' (bytes json.Unmarshal copies unchanged), or -1.
func scanPlainString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for k := i + 1; k < len(b); k++ {
		switch c := b[k]; {
		case c == '"':
			return k + 1
		case c < 0x20 || c >= utf8.RuneSelf || c == '\\':
			return -1
		}
	}
	return -1
}

// scanInt parses a JSON integer of at most 18 digits (so it cannot
// overflow int64) that starts at b[i]. It returns the value and the
// index just past it, or -1.
func scanInt(b []byte, i int) (int64, int) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	digits := i - start
	if digits == 0 || digits > 18 || (digits > 1 && b[start] == '0') {
		return 0, -1
	}
	if neg {
		v = -v
	}
	return v, i
}

// scanFloat parses a JSON number that starts at b[i] as the
// strconv.ParseFloat call json.Unmarshal makes would. It returns the
// value and the index just past it, or -1 (also on overflow, whose
// error is json.Unmarshal's to word).
//
// It accumulates the mantissa while it scans. A token without an
// exponent part whose significant digits, at most 19, form a mantissa
// m < 2^53 and whose fraction has at most 22 digits is float64(m)
// divided by an exact power of ten: one correctly rounded operation,
// which is strconv's own exact fast path and so gives its bits. Every
// other token goes to strconv.ParseFloat.
func scanFloat(b []byte, i int) (float64, int) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var m uint64
	digits, exp := 0, 0 // significant digits in m; m's decimal exponent
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			m = m*10 + uint64(b[i]-'0')
			digits++
		}
	default:
		return 0, -1
	}
	if i < len(b) && b[i] == '.' {
		k := i + 1
		for ; k < len(b) && b[k] >= '0' && b[k] <= '9'; k++ {
			// Leading zeros leave m at 0 and are not significant;
			// every digit after the first non-zero one is, even one
			// that wraps m to 0.
			m = m*10 + uint64(b[k]-'0')
			if m != 0 || digits > 0 {
				digits++
			}
			exp--
		}
		if k == i+1 {
			return 0, -1
		}
		i = k
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		k := skipDigits(b, i)
		if k == i {
			return 0, -1
		}
		return parseFloatToken(b, start, k)
	}
	if digits > 19 || m >= 1<<53 || exp < -22 {
		return parseFloatToken(b, start, i)
	}
	f := float64(m)
	if neg {
		f = -f
	}
	return f / exactPow10[-exp], i
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloatToken is strconv.ParseFloat of the number token
// b[start:end], returned as scanFloat returns.
func parseFloatToken(b []byte, start, end int) (float64, int) {
	v, err := strconv.ParseFloat(string(b[start:end]), 64)
	if err != nil {
		return 0, -1
	}
	return v, end
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// AppendReading appends the report line of rd — exactly the bytes
// json.Marshal(rd) gives, without a trailing newline — to dst.
// json.Marshal refuses NaN and ±Inf; so must the caller, since a
// non-finite field is written as strconv spells it, which is not JSON.
func AppendReading(dst []byte, rd Reading) []byte {
	dst = append(dst, '{')
	if rd.EPC != "" {
		dst = append(dst, `"epc":`...)
		dst = appendString(dst, rd.EPC)
		dst = append(dst, ',')
	}
	dst = append(dst, `"antenna":`...)
	dst = strconv.AppendInt(dst, int64(rd.Antenna), 10)
	dst = append(dst, `,"channel":`...)
	dst = strconv.AppendInt(dst, int64(rd.Channel), 10)
	dst = append(dst, `,"freqHz":`...)
	dst = appendFloat(dst, rd.FreqHz)
	dst = append(dst, `,"phase":`...)
	dst = appendFloat(dst, rd.Phase)
	dst = append(dst, `,"rssi":`...)
	dst = appendFloat(dst, rd.RSSI)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, int64(rd.T), 10)
	return append(dst, '}')
}

// appendFloat formats f as encoding/json does: like ES6 number
// to string, with 'e' notation outside [1e-6, 1e21) and a one-digit
// negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString quotes s as json.Marshal does with its default HTML
// escaping: '"' and '\\' backslashed, control bytes as \b \f \n \r \t
// or \u00XX, '<' '>' '&' as \u00XX, invalid UTF-8 as \ufffd, and
// U+2028/U+2029 as \u2028/\u2029.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
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
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == 0x2028 || r == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
