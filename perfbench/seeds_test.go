package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"rfprism"
)

const (
	// screenSeconds is the run length up to which every table entry is
	// screened: BENCHMARK.json's run_seconds. Streams are generated
	// round by round, so a shorter run posts a prefix of the screened
	// stream.
	screenSeconds = 20
	// tableSize is the number of stream seeds per workload.
	tableSize = 16
)

// TestStreamSeedTable checks that every workload has a full table and
// that each entry still generates the warm-up round it pins.
func TestStreamSeedTable(t *testing.T) {
	for _, name := range []string{"portal", "shelf", "dashboard"} {
		if n := len(streamSeeds[name]); n != tableSize {
			t.Errorf("%s: %d stream seeds, want %d", name, n, tableSize)
		}
		for i := range streamSeeds[name] {
			if _, err := generate(name, int64(i), 1); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestScreenStreamSeeds rebuilds the stream-seed table: for each
// workload it takes stream seeds 1, 2, … in turn, generates the
// screenSeconds stream, solves every window the oracle sends to the
// solver (departure tails aside) on a stand-alone System with the
// workload's options, and keeps the first tableSize seeds none of
// whose windows the error detector rejects. It prints the table as Go
// source for seeds.go. Run it with
//
//	PERFBENCH_SCREEN=1 go test -run TestScreenStreamSeeds -v -timeout 2h
func TestScreenStreamSeeds(t *testing.T) {
	if os.Getenv("PERFBENCH_SCREEN") == "" {
		t.Skip("set PERFBENCH_SCREEN=1 to rebuild the stream-seed table")
	}
	var src strings.Builder
	src.WriteString("var streamSeeds = map[string][]streamSeed{\n")
	for _, name := range []string{"portal", "shelf", "dashboard"} {
		sys, err := buildSystem(stackOpts{confidence: name == "dashboard"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&src, "\t%q: {\n", name)
		for sim, kept := int64(1), 0; kept < tableSize; sim++ {
			w, err := generateFrom(name, sim, timedRounds(name, screenSeconds))
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle()
			for i, rd := range w.readings {
				o.feed(i, rd.EPC, rd.Antenna, rd.Channel)
			}
			o.drain()
			var ws []expWindow
			for _, ew := range o.windows {
				if ew.emitted && !ew.tail {
					ws = append(ws, ew)
				}
			}
			wins := windowsOf(w, ws)
			for i := range wins {
				wins[i].Tag = "" // no per-tag state: every window is preprocessed in full
			}
			var rejected []string
			for i, r := range sys.ProcessWindows(context.Background(), wins) {
				if errors.Is(r.Err, rfprism.ErrWindowRejected) {
					rejected = append(rejected, fmt.Sprintf("%s/%d", ws[i].epc, ws[i].seq))
				}
			}
			if len(rejected) > 0 {
				t.Logf("%s stream seed %d: %d of %d windows rejected (%s)", name, sim, len(rejected), len(ws), strings.Join(rejected, ", "))
				continue
			}
			d, err := warmDigest(w)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s stream seed %d: none of %d windows rejected", name, sim, len(ws))
			fmt.Fprintf(&src, "\t\t{%d, %q},\n", sim, d)
			kept++
		}
		src.WriteString("\t},\n")
	}
	src.WriteString("}\n")
	t.Logf("table for seeds.go:\n%s", src.String())
}
