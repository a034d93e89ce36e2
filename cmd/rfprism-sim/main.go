// Command rfprism-sim generates raw reader traces from the testbed
// simulator and writes them as JSON — the same (antenna, channel,
// phase, RSSI) tuples an ImpinJ Octane subscription would deliver —
// so the processing pipeline can be exercised offline or from other
// languages.
//
// With -stream it instead emits a live-reader-shaped NDJSON report
// stream — one sim.Reading JSON object per line, interleaved across a
// multi-tag population — ready to POST to rfprismd's or
// rfprism-router's /v1/ingest. The stream construction matches
// `rfprismd -replay` exactly (same seed → same tag placements → same
// bytes), so piped ingestion and in-process replay are comparable.
//
// Usage:
//
//	rfprism-sim -x 0.8 -y 1.4 -alpha 60 -material water -o trace.json
//	rfprism-sim -env multipath -windows 3 > traces.json
//	rfprism-sim -stream -tags 6 -rounds 2 -seed 7 | curl -sS --data-binary @- localhost:8490/v1/ingest
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rfprism-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rfprism-sim", flag.ContinueOnError)
	x := fs.Float64("x", 0.8, "tag x (m)")
	y := fs.Float64("y", 1.4, "tag y (m)")
	alpha := fs.Float64("alpha", 0, "tag polarization angle (deg)")
	material := fs.String("material", "none", "attached material")
	env := fs.String("env", "clean", "environment: clean|multipath")
	windows := fs.Int("windows", 1, "number of hop rounds to record")
	seed := fs.Int64("seed", 1, "simulation seed")
	out := fs.String("o", "", "output file (default stdout)")
	stream := fs.Bool("stream", false, "emit an interleaved multi-tag NDJSON report stream instead of traces")
	tags := fs.Int("tags", 3, "tag population (-stream)")
	rounds := fs.Int("rounds", 2, "hop rounds (-stream)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stream {
		return runStream(*seed, *env, *tags, *rounds, *out)
	}

	m, err := rf.MaterialByName(*material)
	if err != nil {
		return err
	}
	environment := rf.CleanSpace()
	if *env == "multipath" {
		environment = rf.LabMultipath()
	}
	hwRng := rand.New(rand.NewSource(*seed))
	scene, err := sim.NewScene(sim.PaperAntennas2D(hwRng), environment, sim.DefaultConfig(), *seed+1)
	if err != nil {
		return err
	}
	tag := scene.NewTag("sim-tag")
	pos := geom.Vec3{X: *x, Y: *y}
	placement := scene.Place(pos, mathx.Rad(*alpha), m)

	traces := make([]sim.Trace, 0, *windows)
	for w := 0; w < *windows; w++ {
		traces = append(traces, sim.Trace{
			Window:   w,
			Seed:     *seed,
			Env:      *env,
			Pos:      pos,
			AlphaDeg: *alpha,
			Material: m.Name,
			Readings: scene.CollectWindow(tag, placement),
		})
	}

	var f *os.File
	if *out == "" {
		f = os.Stdout
	} else {
		f, err = os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	return sim.WriteTraces(f, traces)
}

// runStream emits the same seeded multi-tag NDJSON report stream that
// `rfprismd -replay` feeds itself: identical scene construction and
// tag placement RNG (seed+7), so the piped and in-process paths see
// byte-identical physics.
func runStream(seed int64, env string, tags, rounds int, out string) error {
	if tags < 1 {
		return fmt.Errorf("-tags must be ≥ 1, got %d", tags)
	}
	environment := rf.CleanSpace()
	switch env {
	case "clean":
	case "multipath":
		environment = rf.LabMultipath()
	default:
		return fmt.Errorf("unknown -env %q (clean|multipath)", env)
	}
	hwRng := rand.New(rand.NewSource(seed))
	scene, err := sim.NewScene(sim.PaperAntennas2D(hwRng), environment, sim.DefaultConfig(), seed+999)
	if err != nil {
		return err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return err
	}
	// Replicate rfprismd's startup RNG consumption (calibration tag +
	// three calibration windows) so the scene RNG is in the same state
	// when the replay tags are created — byte identity with -replay
	// depends on it.
	calPos := geom.Vec3{X: 1.0, Y: 1.5}
	calTag := scene.NewTag("cal")
	for i := 0; i < 3; i++ {
		scene.CollectWindow(calTag, scene.Place(calPos, 0, none))
	}
	region := sim.PaperRegion()
	posRng := rand.New(rand.NewSource(seed + 7))
	tracked := make([]sim.TrackedTag, tags)
	for i := range tracked {
		pos := geom.Vec3{
			X: region.XMin + posRng.Float64()*(region.XMax-region.XMin),
			Y: region.YMin + posRng.Float64()*(region.YMax-region.YMin),
		}
		tracked[i] = sim.TrackedTag{
			Tag:    scene.NewTag(fmt.Sprintf("replay-%02d", i)),
			Motion: scene.Place(pos, posRng.Float64()*3, none),
		}
	}
	f := os.Stdout
	if out != "" {
		f, err = os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	w := bufio.NewWriter(f)
	var line []byte
	if err := scene.StreamReadings(tracked, rounds, func(rd sim.Reading) bool {
		line = append(sim.AppendReading(line[:0], rd), '\n')
		_, err := w.Write(line)
		return err == nil
	}); err != nil {
		return err
	}
	return w.Flush()
}
