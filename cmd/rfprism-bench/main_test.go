package main

import (
	"fmt"
	"strings"
	"testing"
)

func rec(name string, par int, ns int64) benchRecord {
	return benchRecord{Name: name, Parallelism: par, NsPerOp: ns}
}

// TestCompareReportsGate: the -against diff flags gated regressions
// beyond the threshold and nothing else.
func TestCompareReportsGate(t *testing.T) {
	baseline := benchReport{Benchmarks: []benchRecord{
		rec("Solve2D", 1, 1000),
		rec("ProcessWindowsBatch", 1, 2000),
		rec("ProcessWindowsDegraded", 1, 3000),
	}}
	current := benchReport{Benchmarks: []benchRecord{
		rec("Solve2D", 1, 1200),                // +20%: gated, fails
		rec("ProcessWindowsBatch", 1, 2100),    // +5%: gated, within 10%
		rec("ProcessWindowsDegraded", 1, 9000), // +200%: not gated
		rec("Solve3D", 1, 50),                  // no baseline row: ignored
	}}
	diffs, failures := compareReports(baseline, current, 10, gatedBenchmarks)
	if len(diffs) != 3 {
		t.Fatalf("got %d diff lines, want 3:\n%s", len(diffs), strings.Join(diffs, "\n"))
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "Solve2D/p1") {
		t.Fatalf("failures = %v, want exactly the Solve2D regression", failures)
	}
}

// TestCompareReportsImprovement: a faster run never fails the gate,
// and a zero-ns baseline row cannot divide by zero.
func TestCompareReportsImprovement(t *testing.T) {
	baseline := benchReport{Benchmarks: []benchRecord{
		rec("Solve2D", 1, 1000),
		rec("ProcessWindowsBatch", 1, 0), // corrupt baseline row
	}}
	current := benchReport{Benchmarks: []benchRecord{
		rec("Solve2D", 1, 800),
		rec("ProcessWindowsBatch", 1, 2000),
	}}
	diffs, failures := compareReports(baseline, current, 10, gatedBenchmarks)
	if len(failures) != 0 {
		t.Fatalf("improvement flagged as regression: %v", failures)
	}
	if len(diffs) != 1 {
		t.Fatalf("zero-ns baseline row not skipped: %v", diffs)
	}
	if !strings.Contains(diffs[0], "-20.0%") {
		t.Errorf("diff line lacks improvement percent: %q", diffs[0])
	}
}

// TestCompareReportsThroughputGate: throughput rows carry a second
// windows/sec diff line, and a gated row whose delivered rate drops
// beyond the threshold fails even when its ns/op stayed flat (a batch
// reshaped to fewer windows per op would otherwise slip through).
func TestCompareReportsThroughputGate(t *testing.T) {
	wps := func(name string, ns int64, w float64) benchRecord {
		return benchRecord{Name: name, Parallelism: 1, NsPerOp: ns, WindowsPerSec: w}
	}
	baseline := benchReport{Benchmarks: []benchRecord{
		wps("StreamReplayWarm", 1000, 500),
		wps("StreamReplayCold", 1000, 100),
		wps("ProcessWindowsDegraded", 1000, 40),
	}}
	current := benchReport{Benchmarks: []benchRecord{
		wps("StreamReplayWarm", 1050, 250),      // ns/op +5% ok, wps -50%: gated, fails
		wps("StreamReplayCold", 900, 110),       // both improved
		wps("ProcessWindowsDegraded", 1000, 10), // wps -75% but not gated
	}}
	diffs, failures := compareReports(baseline, current, 10, gatedBenchmarks)
	if len(diffs) != 6 { // ns/op + windows/sec line per row
		t.Fatalf("got %d diff lines, want 6:\n%s", len(diffs), strings.Join(diffs, "\n"))
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "StreamReplayWarm/p1") ||
		!strings.Contains(failures[0], "windows/sec") {
		t.Fatalf("failures = %v, want exactly the StreamReplayWarm throughput drop", failures)
	}
}

// TestCompareReportsMatchesOnParallelism: the same name at different
// parallelism is a different row — a par-8 win must not mask a par-1
// regression.
func TestCompareReportsMatchesOnParallelism(t *testing.T) {
	baseline := benchReport{Benchmarks: []benchRecord{
		rec("Solve2D", 1, 1000), rec("Solve2D", 8, 200),
	}}
	current := benchReport{Benchmarks: []benchRecord{
		rec("Solve2D", 1, 1500), rec("Solve2D", 8, 100),
	}}
	_, failures := compareReports(baseline, current, 10, gatedBenchmarks)
	if len(failures) != 1 || !strings.Contains(failures[0], "Solve2D/p1") {
		t.Fatalf("failures = %v, want only Solve2D/p1", failures)
	}
}

// TestParallelLevels: parallel rows appear only when more than one CPU
// can run the workers.
func TestParallelLevels(t *testing.T) {
	for _, c := range []struct {
		numCPU, maxProcs int
		pars, sweep      string
	}{
		{1, 1, "[1]", "[1]"},
		{4, 1, "[1]", "[1]"},
		{1, 4, "[1]", "[1]"},
		{2, 2, "[1 2]", "[1 2 4 8]"},
		{8, 8, "[1 8]", "[1 2 4 8]"},
	} {
		pars, sweep := parallelLevels(c.numCPU, c.maxProcs)
		if fmt.Sprint(pars) != c.pars || fmt.Sprint(sweep) != c.sweep {
			t.Errorf("parallelLevels(%d, %d) = %v, %v; want %s, %s", c.numCPU, c.maxProcs, pars, sweep, c.pars, c.sweep)
		}
	}
}

// TestMedianRecord: repeats fold into the per-metric median (upper
// median for an even count) with the min/max spread of the gated
// metrics, so one noisy repeat moves neither the recorded row nor the
// -against comparison.
func TestMedianRecord(t *testing.T) {
	runs := []benchRecord{
		{Name: "Solve2D", Parallelism: 1, NsPerOp: 900, AllocsPerOp: 7, WindowsPerSec: 40, ReadQPS: 5},
		{Name: "Solve2D", Parallelism: 1, NsPerOp: 3000, AllocsPerOp: 7, WindowsPerSec: 12, ReadQPS: 9},
		{Name: "Solve2D", Parallelism: 1, NsPerOp: 1000, AllocsPerOp: 9, WindowsPerSec: 36, ReadQPS: 1},
	}
	got := medianRecord(runs)
	want := benchRecord{
		Name: "Solve2D", Parallelism: 1, Runs: 3,
		NsPerOp: 1000, NsPerOpMin: 900, NsPerOpMax: 3000, AllocsPerOp: 7,
		WindowsPerSec: 36, WindowsMin: 12, WindowsMax: 40,
		ReadQPS: 5, ReadQPSMin: 1, ReadQPSMax: 9,
	}
	if got != want {
		t.Fatalf("medianRecord = %+v\nwant %+v", got, want)
	}
	if even := medianRecord(runs[:2]); even.NsPerOp != 3000 || even.Runs != 2 {
		t.Fatalf("even count: ns/op %d runs %d, want the upper median 3000 over 2", even.NsPerOp, even.Runs)
	}
	// The gate compares medians: the 3000 ns/op outlier alone is no
	// regression against a 1000 ns/op baseline.
	_, failures := compareReports(benchReport{Benchmarks: []benchRecord{rec("Solve2D", 1, 1000)}},
		benchReport{Benchmarks: []benchRecord{got}}, 10, gatedBenchmarks)
	if len(failures) != 0 {
		t.Fatalf("median row flagged: %v", failures)
	}
}
