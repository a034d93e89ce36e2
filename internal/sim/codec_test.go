package sim

import (
	"bytes"
	"encoding/json"
	"math"
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
