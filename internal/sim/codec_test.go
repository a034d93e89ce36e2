package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sameReading compares two readings field by field, floats by their
// bits so that -0 and 0 differ.
func sameReading(a, b Reading) bool {
	return a.EPC == b.EPC && a.Antenna == b.Antenna && a.Channel == b.Channel && a.T == b.T &&
		math.Float64bits(a.FreqHz) == math.Float64bits(b.FreqHz) &&
		math.Float64bits(a.Phase) == math.Float64bits(b.Phase) &&
		math.Float64bits(a.RSSI) == math.Float64bits(b.RSSI)
}

// checkParseLikeUnmarshal is the differential oracle of ParseReading:
// it and json.Unmarshal either both fail with the same message or both
// succeed with the same Reading.
func checkParseLikeUnmarshal(t *testing.T, raw []byte) {
	t.Helper()
	got, gotErr := ParseReading(raw)
	var want Reading
	wantErr := json.Unmarshal(raw, &want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%q: ParseReading err %v, json.Unmarshal err %v", raw, gotErr, wantErr)
	case wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: ParseReading err %q, json.Unmarshal err %q", raw, gotErr, wantErr)
		}
	case !sameReading(got, want):
		t.Fatalf("%q: ParseReading %+v, json.Unmarshal %+v", raw, got, want)
	}
}

// checkAppendLikeMarshal is the differential oracle of AppendReading.
func checkAppendLikeMarshal(t *testing.T, rd Reading) {
	t.Helper()
	want, err := json.Marshal(rd)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", rd, err)
	}
	if got := AppendReading(nil, rd); !bytes.Equal(got, want) {
		t.Fatalf("AppendReading(%+v)\n got %s\nwant %s", rd, got, want)
	}
}

// parseSeeds are report lines on both sides of the fast path's edge:
// canonical ones, and every shape it must hand to json.Unmarshal.
var parseSeeds = []string{
	// The FuzzIngestNDJSON seeds.
	`{"epc":"A","antenna":1,"channel":0,"freqHz":920e6,"phase":0.5,"rssi":-50}`,
	`{"epc":"A","antenna":1,"channel":0}` + "\n" + `{"epc":"A","antenna":1,"channel":0}`,
	`{"epc":"A","antenna":1,"chan`,
	`{"epc":"A","channel":0,"phase":1e999}`,
	`{"epc":"A","channel":0,"rssi":-1e999}`,
	`{"epc":"` + strings.Repeat("Z", 4096) + `","channel":0}`,
	"\n\n\n",
	`{"epc":"","channel":0}`,
	`{"epc":"A","channel":-7}`,
	`[1,2,3]`,
	// Canonical lines and their near misses.
	`{"epc":"urn:epc:S001","antenna":3,"channel":49,"freqHz":927250000,"phase":4.71238898,"rssi":-61.5,"t":123456789}`,
	`{"antenna":0,"channel":0,"freqHz":0,"phase":0,"rssi":0,"t":0}`,
	`{}`,
	`{"EPC":"A","antenna":1}`,
	`{"epc":"A","Antenna":1}`,
	`{"epc":"A","epc":"B"}`,
	`{"antenna":1,"antenna":2}`,
	`{"epc":null,"antenna":null,"phase":null}`,
	`null`,
	`{ "epc":"A"}`,
	`{"epc" :"A"}`,
	`{"epc": "A"}`,
	`{"epc":"A" ,"antenna":1}`,
	`{"epc":"A", "antenna":1}`,
	`{"epc":"A","antenna":1 }`,
	`{"epc":"A","antenna":1}`,
	`{"epc":"A"}`,
	`{"epc":"A\"B"}`,
	`{"epc":"A\\B"}`,
	`{"epc":"<>&"}`,
	`{"epc":"<>&\"\\"}`,
	`{"epc":"caf` + "\xc3\xa9" + `"}`,
	`{"epc":"bad` + "\xff" + `"}`,
	`{"epc":"tab` + "\t" + `"}`,
	`{"epc":1}`,
	`{"antenna":"1"}`,
	`{"antenna":1.0}`,
	`{"antenna":1e2}`,
	`{"antenna":-0}`,
	`{"antenna":01}`,
	`{"antenna":-}`,
	`{"antenna":+1}`,
	`{"antenna":999999999999999999}`,
	`{"antenna":9223372036854775807}`,
	`{"antenna":9223372036854775808}`,
	`{"t":-9223372036854775808}`,
	`{"t":-9223372036854775809}`,
	`{"antenna":99999999999999999999999}`,
	`{"phase":-0}`,
	`{"phase":-0.0}`,
	`{"phase":0e5}`,
	`{"phase":1e-400}`,
	`{"phase":1.5e+3}`,
	`{"phase":1.E3}`,
	`{"phase":.5}`,
	`{"phase":1.}`,
	`{"phase":00.5}`,
	`{"phase":0x10}`,
	`{"phase":1_000}`,
	`{"phase":Infinity}`,
	// The edges of scanFloat's exact fast path: mantissas around 2^53,
	// 16 to 20 significant digits, 22 and 23 fraction digits, and
	// fractions with leading zeros.
	`{"phase":9007199254740991}`,
	`{"phase":9007199254740992}`,
	`{"phase":9007199254740993}`,
	`{"phase":-900719925474099.3}`,
	`{"phase":9.007199254740993}`,
	`{"phase":1234567890123456}`,
	`{"phase":12345678901234567}`,
	`{"phase":1234567890123456789}`,
	`{"phase":12345678901234567890}`,
	`{"phase":0.1234567890123456789}`,
	`{"phase":0.12345678901234567890}`,
	`{"phase":1e22}`,
	`{"phase":1e23}`,
	`{"phase":1e-22}`,
	`{"phase":1e-23}`,
	`{"phase":0.0000000000000000000001}`,
	`{"phase":0.00000000000000000000001}`,
	`{"phase":1.0000000000000000000001}`,
	`{"phase":0.0000000000000000000000}`,
	`{"phase":-0.00000000000000000000001}`,
	`{"phase":0.000001}`,
	`{"phase":0.0000012345}`,
	`{"phase":-0.05}`,
	// 20 significant digits whose mantissa is a multiple of 2^64, so
	// it wraps to 0 on the last digit.
	`{"phase":1.8446744073709551616}`,
	`{"phase":0.18446744073709551616}`,
	`{"phase":-3.6893488147419103232}`,
	`{"phase":0.0000000018446744073709551616000}`,
	`{"rssi":-0}`,
	`{"rssi":-0.000}`,
	`{"phase":NaN}`,
	`{"phase":true}`,
	`{"phase":1,}`,
	`{"phase":1}}`,
	`{"phase":1}x`,
	`{"unknown":1,"epc":"A"}`,
	`{"epc":"A"`,
	`{"epc":"A}`,
	`{"epc}`,
	`{"`,
	`{`,
	`}`,
	``,
}

func TestParseReadingMatchesUnmarshal(t *testing.T) {
	for _, s := range parseSeeds {
		checkParseLikeUnmarshal(t, []byte(s))
	}
}

// TestParseReadingFastPath pins which lines the reflection-free
// scanner takes: everything AppendReading writes for a plain EPC.
func TestParseReadingFastPath(t *testing.T) {
	for _, s := range []string{
		`{"epc":"urn:epc:S001","antenna":3,"channel":49,"freqHz":927250000,"phase":4.71238898,"rssi":-61.5,"t":123456789}`,
		`{"t":5,"rssi":-1e-7,"epc":"x"}`,
	} {
		if _, ok := parseCanonical([]byte(s)); !ok {
			t.Errorf("%s: not on the fast path", s)
		}
	}
	scene := streamScene(t, 41)
	if err := scene.StreamReadings(streamTags(t, scene, 2), 1, func(rd Reading) bool {
		line := AppendReading(nil, rd)
		got, ok := parseCanonical(line)
		if !ok || !sameReading(got, rd) {
			t.Fatalf("%s: fast path gave %+v, %v", line, got, ok)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendReadingMatchesMarshal(t *testing.T) {
	for _, rd := range []Reading{
		{},
		{EPC: "A", Antenna: -1, Channel: 49, T: -time.Second},
		{EPC: `<>&"\` + "\b\f\n\r\t\x00\x1f\x7f", Phase: math.Copysign(0, -1)},
		{EPC: "caf\xc3\xa9 \xff \u2028 \u2029 \xe2\x80", RSSI: -61.25},
		{FreqHz: 1e21, Phase: 1e-6, RSSI: 9.99999e-7},
		{FreqHz: 1e20, Phase: 1e-7, RSSI: -1.5e-300},
		{FreqHz: math.MaxFloat64, Phase: math.SmallestNonzeroFloat64, RSSI: 123456789.123456789},
		{Antenna: math.MaxInt64, Channel: math.MinInt64, T: math.MaxInt64},
	} {
		checkAppendLikeMarshal(t, rd)
	}
	scene := streamScene(t, 42)
	if err := scene.StreamReadings(streamTags(t, scene, 3), 2, func(rd Reading) bool {
		checkAppendLikeMarshal(t, rd)
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestParseReadingAllocs: a canonical line costs one allocation, the
// EPC string.
func TestParseReadingAllocs(t *testing.T) {
	line := []byte(`{"epc":"urn:epc:S001","antenna":3,"channel":49,"freqHz":927250000,"phase":4.71238898,"rssi":-61.5,"t":123456789}`)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseReading(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ParseReading of a canonical line: %v allocations, want at most 1", allocs)
	}
}

func TestAppendReadingAllocs(t *testing.T) {
	rd := Reading{EPC: "urn:epc:S001", Antenna: 3, Channel: 49, FreqHz: 927.25e6, Phase: 4.71238898, RSSI: -61.5, T: 123456789}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendReading(buf[:0], rd)
	})
	if allocs != 0 {
		t.Fatalf("AppendReading into a sized buffer: %v allocations, want 0", allocs)
	}
}

// TestScanFloatMatchesParseFloat holds scanFloat to
// strconv.ParseFloat bit for bit on more than a million tokens: doubles
// formatted as the shortest 'f' form and at fixed precisions, and
// random digit strings on both sides of the fast path's limits.
func TestScanFloatMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(tok string) {
		want, err := strconv.ParseFloat(tok, 64)
		got, end := scanFloat([]byte(tok), 0)
		if err != nil || end != len(tok) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: scanFloat %v (end %d), strconv.ParseFloat %v (%v)", tok, got, end, want, err)
		}
	}
	n := 0
	for n < 1_100_000 {
		var f float64
		switch rng.Intn(4) {
		case 0: // a phase or an RSSI
			f = (rng.Float64() - 0.5) * 200
		case 1: // a carrier frequency
			f = 902e6 + rng.Float64()*26e6
		case 2: // any magnitude the fast path can meet
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-22))
		default: // any finite double
			f = math.Float64frombits(rng.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
		}
		check(strconv.FormatFloat(f, 'f', -1, 64))
		check(strconv.FormatFloat(f, 'f', rng.Intn(25), 64))
		n += 2
	}
	// Mantissas that are multiples of 2^64 wrap a uint64 accumulator to
	// exactly 0; put the point and leading and trailing zeros anywhere.
	for k := int64(1); k <= 60; k++ {
		digits := new(big.Int).Lsh(big.NewInt(k), 64).String()
		for point := 1; point <= len(digits); point++ {
			for _, lead := range []string{"", "0.", "0.000", "-0.00000000"} {
				tok := lead + digits[:point]
				if lead == "" {
					tok += "." + digits[point:] + "0"
				} else {
					tok += digits[point:]
				}
				check(tok)
				check(tok + "000")
			}
		}
	}
	for _, tok := range []string{"1.8446744073709551616", "0.18446744073709551616", "-3.6893488147419103232"} {
		check(tok)
	}
	var buf []byte
	for i := 0; i < 300_000; i++ {
		buf = buf[:0]
		if rng.Intn(2) == 0 {
			buf = append(buf, '-')
		}
		intDigits := 1 + rng.Intn(21)
		for k := 0; k < intDigits; k++ {
			c := byte('0' + rng.Intn(10))
			if k == 0 && intDigits > 1 && c == '0' {
				c = '1'
			}
			buf = append(buf, c)
		}
		if intDigits == 1 && rng.Intn(2) == 0 {
			buf[len(buf)-1] = '0'
		}
		if frac := rng.Intn(26); frac > 0 {
			buf = append(buf, '.')
			zeros := rng.Intn(frac + 1)
			for k := 0; k < frac; k++ {
				c := byte('0' + rng.Intn(10))
				if k < zeros {
					c = '0'
				}
				buf = append(buf, c)
			}
		}
		check(string(buf))
	}
}

func FuzzParseReading(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkParseLikeUnmarshal(t, raw)
	})
}

func FuzzAppendReading(f *testing.F) {
	f.Add("urn:epc:S001", 3, 49, 927.25e6, 4.71238898, -61.5, int64(123456789))
	f.Add("", 0, 0, 0.0, 0.0, 0.0, int64(0))
	f.Add(`<>&"\`, -1, -7, 1e21, 1e-7, math.Copysign(0, -1), int64(-1))
	f.Add("\u2028\xff\x00", math.MaxInt64, math.MinInt64, math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-300, int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, epc string, antenna, channel int, freq, phase, rssi float64, tt int64) {
		for _, v := range []float64{freq, phase, rssi} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		rd := Reading{EPC: epc, Antenna: antenna, Channel: channel, FreqHz: freq, Phase: phase, RSSI: rssi, T: time.Duration(tt)}
		checkAppendLikeMarshal(t, rd)
		// What AppendReading writes, ParseReading reads back.
		checkParseLikeUnmarshal(t, AppendReading(nil, rd))
	})
}
