package main

import "fmt"

// Stream seeds.
//
// The error detector rejects about one clean window in ten thousand
// (README, Findings). A run holds some 800 windows, so left to chance a
// rejection would fail a few runs in a hundred, on some seeds only,
// and the share of failed windows would differ between runs. So the
// benchmark seed does not draw the stream itself: it picks an entry of
// a fixed per-workload table of stream seeds, each screened once, when
// the table was made, to give no rejected window in a run of
// BENCHMARK.json's length (seeds_test.go, PERFBENCH_SCREEN=1).
// Generation runs nothing of the stack, so every build is measured on
// the same streams, and a build whose detector rejects one of these
// windows fails the run.
//
// Each entry also pins the digest of its warm-up round as posted: a
// change in the simulator's output changes the streams, and generate
// then refuses to run rather than measure other inputs.

// streamSeed is one screened table entry.
type streamSeed struct {
	sim        int64  // seed of the generator's draws
	warmDigest string // digest of the warm-up round's POST bodies
}

// pickStreamSeed maps a benchmark seed onto the workload's table.
func pickStreamSeed(name string, seed int64) (streamSeed, error) {
	t := streamSeeds[name]
	if len(t) == 0 {
		return streamSeed{}, fmt.Errorf("unknown workload %q (portal|shelf|dashboard)", name)
	}
	i := seed % int64(len(t))
	if i < 0 {
		i += int64(len(t))
	}
	return t[i], nil
}

// streamSeeds is the screened table, written by seeds_test.go.
var streamSeeds = map[string][]streamSeed{
	"portal": {
		{1, "27a5455a84806cf7"},
		{2, "c2f6d284392ead71"},
		{3, "78dcf2efc48ac3bc"},
		{4, "3cf1542738e40505"},
		{5, "9e94e9a74d1391f7"},
		{6, "d856daab72eaf545"},
		{8, "ceb1bf06b425da7c"},
		{9, "32b2e2a5d3fe73cb"},
		{10, "3fabe235cda29718"},
		{11, "414bc4ba42268434"},
		{12, "5a2b5ca178d0f0fd"},
		{13, "73583f657c73970f"},
		{14, "90860fbcf604b39a"},
		{15, "c096312ad19ad36f"},
		{16, "18f52f74385294dc"},
		{17, "3c31821fffd79c65"},
	},
	"shelf": {
		{1, "a120f4d890b32f91"},
		{2, "39cf8592d28e797c"},
		{3, "f2a5d721403465c4"},
		{4, "fc963da8fd14052f"},
		{6, "e85646f53f9c2924"},
		{7, "de812d88d2c50d2b"},
		{8, "3271780a3e7ce810"},
		{9, "e59ba7617b1bdde4"},
		{10, "3d7c507baad50baf"},
		{11, "fce5104a7de40f61"},
		{12, "9820289282347c50"},
		{13, "190c2ce2c62e4b70"},
		{14, "292582e9a0fbcfd0"},
		{15, "f776583fbcad0b03"},
		{16, "6c85db9769784bcf"},
		{17, "9bcb8a0e2699515d"},
	},
	"dashboard": {
		{1, "ac6746d48c5573a1"},
		{2, "07b3dcec1437b375"},
		{3, "e26015879ebef4db"},
		{4, "d0b1eb422e8c9607"},
		{5, "4135d272beaae25c"},
		{6, "e65b29c93bcfbb83"},
		{7, "c3b78fd45b683f4c"},
		{8, "21c92f2ba54116e6"},
		{9, "9d0bcec3edc866f4"},
		{10, "b7254be7e18f2de2"},
		{11, "9f74f8ee227961ec"},
		{12, "afad08672841b28c"},
		{13, "6aa4275341df4b01"},
		{14, "3a762a6b020530a1"},
		{15, "633f7b9663a5714e"},
		{16, "7acdd22d94ddeb59"},
	},
}
