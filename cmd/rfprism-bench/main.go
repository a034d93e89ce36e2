// Command rfprism-bench measures the disentangling pipeline's solver
// latency and batch throughput at parallelism 1 vs GOMAXPROCS and
// writes the result as JSON (default BENCH_solver.json), giving every
// future performance PR a recorded trajectory to beat.
//
// The report also carries a per-stage breakdown (spectra, fit, channel
// selection, detector, solve) measured with the span tracer on a
// separate untimed pass, so "the batch got slower" decomposes into
// which stage got slower.
//
// Every row is measured repeatsPerRow (5) times and records the median
// of each metric with the min and max of its repeats: on a shared host
// single runs of the same binary swing 2–3×, so one mean says little.
//
// With -against the run compares its median ns/op (and, for throughput
// rows, windows/sec) against a previous report and exits non-zero when a
// gated benchmark (Solve2D, ProcessWindowsBatch, StreamReplayCold,
// StreamReplayWarm) regresses by more than -max-regress percent — the
// CI perf gate.
//
// Usage:
//
//	go run ./cmd/rfprism-bench [-out BENCH_solver.json] [-benchtime 1s]
//	go run ./cmd/rfprism-bench -out /tmp/bench.json -against BENCH_solver.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"rfprism"
	"rfprism/internal/core"
	"rfprism/internal/geom"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// benchRecord is one row. In a written report every metric is the
// median over Runs repeats, and the _min/_max fields are the spread of
// the repeats behind the gated medians.
type benchRecord struct {
	Name          string  `json:"name"`
	Parallelism   int     `json:"parallelism"`
	Runs          int     `json:"runs,omitempty"`
	NsPerOp       int64   `json:"ns_per_op"`
	NsPerOpMin    int64   `json:"ns_per_op_min,omitempty"`
	NsPerOpMax    int64   `json:"ns_per_op_max,omitempty"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	WindowsPerSec float64 `json:"windows_per_sec,omitempty"`
	WindowsMin    float64 `json:"windows_per_sec_min,omitempty"`
	WindowsMax    float64 `json:"windows_per_sec_max,omitempty"`
	// Latency percentiles. The cluster replay rows record per-chunk
	// ingest POST round-trips through the router; the ReadLoad row
	// records the read fleet's poll-GET latency instead.
	P50Ms  float64 `json:"p50_ms,omitempty"`
	P99Ms  float64 `json:"p99_ms,omitempty"`
	P999Ms float64 `json:"p999_ms,omitempty"`
	// Read-side serving-tier load, recorded only by the ReadLoad row.
	ReadClients int     `json:"read_clients,omitempty"`
	ReadQPS     float64 `json:"read_qps,omitempty"`
	ReadQPSMin  float64 `json:"read_qps_min,omitempty"`
	ReadQPSMax  float64 `json:"read_qps_max,omitempty"`
}

// stageRecord is one pipeline stage's share of batch processing time,
// measured by the span tracer on a separate pass so the timed
// benchmark rows stay tracer-free.
type stageRecord struct {
	Stage   string `json:"stage"`
	Count   int64  `json:"count"`
	AvgNs   int64  `json:"avg_ns"`
	MinNs   int64  `json:"min_ns"`
	MaxNs   int64  `json:"max_ns"`
	TotalNs int64  `json:"total_ns"`
}

type benchReport struct {
	Generated   string        `json:"generated"`
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	GoMaxProcs  int           `json:"go_max_procs"`
	Benchtime   string        `json:"benchtime"`
	Benchmarks  []benchRecord `json:"benchmarks"`
	Stages      []stageRecord `json:"stages,omitempty"`
	SpeedupNote string        `json:"speedup_note"`
}

func main() {
	testing.Init()
	out := flag.String("out", "BENCH_solver.json", "output JSON path")
	benchtime := flag.Duration("benchtime", time.Second, "minimum measuring time per benchmark")
	against := flag.String("against", "", "baseline report to diff against (exit 1 on gated regressions)")
	maxRegress := flag.Float64("max-regress", 10, "max tolerated ns/op regression vs -against, percent")
	clusterTags := flag.Int("cluster-tags", 100000, "cloned tag population for the ClusterStream rows (0 skips them)")
	readClients := flag.Int("read-clients", 100000, "concurrent read clients for the ReadLoad rows (0 skips them)")
	readTags := flag.Int("read-tags", 100000, "cloned tag population replayed under the read fleet")
	flag.Parse()
	// testing.Benchmark honors the -test.benchtime flag value.
	if err := flag.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		log.Fatal(err)
	}

	obs2d, bounds2d, err := fittedObs2D()
	if err != nil {
		log.Fatal(err)
	}
	obs3d, bounds3d, err := fittedObs3D()
	if err != nil {
		log.Fatal(err)
	}
	scene, wins, err := batchWindows()
	if err != nil {
		log.Fatal(err)
	}
	degScene, degWins, err := degradedWindows()
	if err != nil {
		log.Fatal(err)
	}

	report := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime.String(),
		SpeedupNote: "parallelism>1 rows are recorded only when num_cpu and go_max_procs " +
			"both exceed 1; the ClusterStream shards=N rows share the host's CPUs, " +
			"so their speedup is bounded by num_cpu",
	}

	pars, sweep := parallelLevels(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	// The parallelism sweep: the same Solve2D op across a fixed ladder
	// of worker counts, so a report recorded on a multi-core runner
	// exposes the scaling curve. Informational — not regression-gated.
	for _, par := range sweep {
		par := par
		report.Benchmarks = append(report.Benchmarks, bench("Solve2DSweep", par, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve2D(obs2d, bounds2d, core.Options{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	for _, par := range pars {
		par := par
		report.Benchmarks = append(report.Benchmarks, bench("Solve2D", par, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve2D(obs2d, bounds2d, core.Options{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	for _, par := range pars {
		par := par
		report.Benchmarks = append(report.Benchmarks, bench("Solve3D", par, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve3D(obs3d, bounds3d, core.Options{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	for _, par := range pars {
		par := par
		sys, err := rfprism.NewSystem(rfprism.DeploymentFromSim(scene.Antennas),
			rfprism.Bounds2D(sim.PaperRegion()), rfprism.WithParallelism(par))
		if err != nil {
			log.Fatal(err)
		}
		report.Benchmarks = append(report.Benchmarks, bench("ProcessWindowsBatch", par, len(wins), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, res := range sys.ProcessWindows(context.Background(), wins) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		}))
	}
	// Degraded mode: the same batch path with one dead antenna out of
	// four plus burst loss, so regressions in the fault-tolerant slow
	// path (subset health accounting, per-antenna shedding) are visible.
	for _, par := range pars {
		par := par
		sys, err := rfprism.NewSystem(rfprism.DeploymentFromSim(degScene.Antennas),
			rfprism.Bounds2D(sim.PaperRegion()), rfprism.WithParallelism(par))
		if err != nil {
			log.Fatal(err)
		}
		report.Benchmarks = append(report.Benchmarks, bench("ProcessWindowsDegraded", par, len(degWins), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, res := range sys.ProcessWindows(context.Background(), degWins) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					if h := res.Result.Health(); h == nil || !h.Degraded {
						b.Fatal("degraded batch not flagged degraded")
					}
				}
			}
		}))
	}

	// Streaming replay: one tag moving in a move-and-dwell pattern
	// through ~32 sequential windows, cold vs the stationary-tag cache.
	// The pair is the headline fast-path number: same windows, same
	// serial worker, only the cache differs. The cached row keeps its
	// historical "Warm" name so recorded reports stay comparable.
	streamScene, streamWins, err := streamWindows()
	if err != nil {
		log.Fatal(err)
	}
	for _, fast := range []bool{false, true} {
		name := "StreamReplayCold"
		opts := []rfprism.Option{rfprism.WithParallelism(1)}
		if fast {
			name = "StreamReplayWarm"
			opts = append(opts, rfprism.WithSolveCache(64))
		}
		sys, err := rfprism.NewSystem(rfprism.DeploymentFromSim(streamScene.Antennas),
			rfprism.Bounds2D(sim.PaperRegion()), opts...)
		if err != nil {
			log.Fatal(err)
		}
		report.Benchmarks = append(report.Benchmarks, bench(name, 1, len(streamWins), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, res := range sys.ProcessWindows(context.Background(), streamWins) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		}))
	}

	// Sharded ingest replay: the same cloned 100k-tag population (see
	// cluster.go) through the router into 1 vs 3 shards. On a
	// multi-core runner the 3-shard row is the horizontal-scaling
	// claim; here the pair also gates windows/sec regressions in the
	// routing tier. The Lossy row repeats the 3-shard replay behind
	// netchaos proxies dropping 1% of connections, so the retry +
	// dedup path is both perf-gated and correctness-checked (its
	// window count must still be exact).
	if *clusterTags > 0 {
		for _, cr := range []struct {
			name   string
			shards int
			lossy  bool
		}{{"ClusterStream1", 1, false}, {"ClusterStream3", 3, false}, {"ClusterStreamLossy", 3, true}} {
			rec, err := repeat(func() (benchRecord, error) {
				return clusterRow(cr.name, cr.shards, *clusterTags, cr.lossy)
			})
			if err != nil {
				log.Fatal(err)
			}
			report.Benchmarks = append(report.Benchmarks, rec)
		}
	}

	// Read-side serving tier: the same cloned replay into one node, idle
	// vs with ~100k concurrent read clients attached (see readload.go).
	// The loaded row gates both ingest windows/sec and read QPS.
	if *readClients > 0 && *readTags > 0 {
		rows, err := readLoadRows(*readTags, *readClients)
		if err != nil {
			log.Fatal(err)
		}
		report.Benchmarks = append(report.Benchmarks, rows...)
	}

	// Per-stage breakdown on a dedicated traced pass: the rows above
	// must stay tracer-free so they remain comparable to baselines
	// recorded before tracing existed.
	stages, err := stageBreakdown(scene, wins)
	if err != nil {
		log.Fatal(err)
	}
	report.Stages = stages

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	for _, b := range report.Benchmarks {
		fmt.Printf("%-22s parallelism=%-2d %12d ns/op [%d, %d] %8d allocs/op", b.Name, b.Parallelism,
			b.NsPerOp, b.NsPerOpMin, b.NsPerOpMax, b.AllocsPerOp)
		if b.WindowsPerSec > 0 {
			fmt.Printf(" %10.1f windows/sec", b.WindowsPerSec)
		}
		if b.ReadQPS > 0 {
			fmt.Printf(" %10.1f read qps (%d clients)", b.ReadQPS, b.ReadClients)
		}
		if b.P999Ms > 0 {
			label := "ingest"
			if b.ReadQPS > 0 {
				label = "read"
			}
			fmt.Printf("  %s p50/p99/p999 %.2f/%.2f/%.2f ms", label, b.P50Ms, b.P99Ms, b.P999Ms)
		}
		fmt.Println()
	}
	for _, s := range report.Stages {
		fmt.Printf("stage %-10s %8d spans %12d ns avg %12d ns total\n", s.Stage, s.Count, s.AvgNs, s.TotalNs)
	}
	fmt.Printf("wrote %s\n", *out)

	if *against != "" {
		raw, err := os.ReadFile(*against)
		if err != nil {
			log.Fatal(err)
		}
		var baseline benchReport
		if err := json.Unmarshal(raw, &baseline); err != nil {
			log.Fatalf("parse %s: %v", *against, err)
		}
		diffs, failures := compareReports(baseline, report, *maxRegress, gatedBenchmarks)
		for _, d := range diffs {
			fmt.Println(d)
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "rfprism-bench: %d gated regression(s) beyond %.0f%%:\n", len(failures), *maxRegress)
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, " ", f)
			}
			os.Exit(1)
		}
		fmt.Printf("no gated regression beyond %.0f%% vs %s\n", *maxRegress, *against)
	}
}

// parallelLevels returns the worker counts of the paired rows and of
// the Solve2DSweep ladder. A parallel row measures worker scaling,
// which one CPU cannot show, so with a single CPU (or GOMAXPROCS=1)
// only the serial rows are emitted.
func parallelLevels(numCPU, maxProcs int) (pars, sweep []int) {
	if numCPU < 2 || maxProcs < 2 {
		return []int{1}, []int{1}
	}
	return []int{1, maxProcs}, []int{1, 2, 4, 8}
}

// gatedBenchmarks are the rows whose regression fails a -against run.
// The degraded and 3D rows are informational: they are noisier and
// gate nothing.
var gatedBenchmarks = map[string]bool{
	"Solve2D":             true,
	"ProcessWindowsBatch": true,
	"StreamReplayCold":    true,
	"StreamReplayWarm":    true,
	"ClusterStream1":      true,
	"ClusterStream3":      true,
	"ClusterStreamLossy":  true,
	"ReadLoadIdle":        true,
	"ReadLoad":            true,
}

// compareReports diffs current against baseline by (name,
// parallelism), comparing the rows' median fields. It returns one human-readable line per common row and
// a failure line for each gated row whose ns/op regressed — or, for
// throughput rows, whose windows/sec dropped — by more than
// maxRegressPct. Rows present on only one side are ignored — a renamed
// benchmark should update its baseline, not crash the gate.
func compareReports(baseline, current benchReport, maxRegressPct float64, gated map[string]bool) (diffs, failures []string) {
	base := make(map[string]benchRecord, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[fmt.Sprintf("%s/p%d", b.Name, b.Parallelism)] = b
	}
	for _, c := range current.Benchmarks {
		key := fmt.Sprintf("%s/p%d", c.Name, c.Parallelism)
		b, ok := base[key]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		pct := 100 * (float64(c.NsPerOp) - float64(b.NsPerOp)) / float64(b.NsPerOp)
		diffs = append(diffs, fmt.Sprintf("%-26s %12d -> %12d ns/op  %+6.1f%%", key, b.NsPerOp, c.NsPerOp, pct))
		if gated[c.Name] && pct > maxRegressPct {
			failures = append(failures, fmt.Sprintf("%s regressed %.1f%% (%d -> %d ns/op)", key, pct, b.NsPerOp, c.NsPerOp))
		}
		// Throughput rows additionally gate on windows/sec: ns/op of a
		// whole-batch row can hide a throughput collapse if the batch
		// shape changes, so the delivered rate is checked directly.
		if b.WindowsPerSec > 0 && c.WindowsPerSec > 0 {
			drop := 100 * (b.WindowsPerSec - c.WindowsPerSec) / b.WindowsPerSec
			diffs = append(diffs, fmt.Sprintf("%-26s %12.1f -> %12.1f windows/sec  %+6.1f%%",
				key, b.WindowsPerSec, c.WindowsPerSec, -drop))
			if gated[c.Name] && drop > maxRegressPct {
				failures = append(failures, fmt.Sprintf("%s throughput dropped %.1f%% (%.1f -> %.1f windows/sec)",
					key, drop, b.WindowsPerSec, c.WindowsPerSec))
			}
		}
		// The ReadLoad row symmetrically gates read throughput: the
		// serving tier must keep answering its fleet at full ingest
		// rate. QPS scales with the fleet, so the comparison only means
		// something when both runs drove the same -read-clients.
		if b.ReadQPS > 0 && c.ReadQPS > 0 && b.ReadClients == c.ReadClients {
			drop := 100 * (b.ReadQPS - c.ReadQPS) / b.ReadQPS
			diffs = append(diffs, fmt.Sprintf("%-26s %12.1f -> %12.1f read qps  %+6.1f%%",
				key, b.ReadQPS, c.ReadQPS, -drop))
			if gated[c.Name] && drop > maxRegressPct {
				failures = append(failures, fmt.Sprintf("%s read throughput dropped %.1f%% (%.1f -> %.1f qps)",
					key, drop, b.ReadQPS, c.ReadQPS))
			}
		}
	}
	return diffs, failures
}

// stageBreakdown runs the batch once more with the span tracer
// installed and aggregates per-stage latency.
func stageBreakdown(scene *sim.Scene, wins []rfprism.Window) ([]stageRecord, error) {
	stats := rfprism.NewStageStats()
	sys, err := rfprism.NewSystem(rfprism.DeploymentFromSim(scene.Antennas),
		rfprism.Bounds2D(sim.PaperRegion()), rfprism.WithParallelism(1), rfprism.WithTracer(stats))
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < 3; pass++ {
		for _, res := range sys.ProcessWindows(context.Background(), wins) {
			if res.Err != nil {
				return nil, res.Err
			}
		}
	}
	var out []stageRecord
	for _, st := range stats.Snapshot() {
		out = append(out, stageRecord{
			Stage:   string(st.Stage),
			Count:   st.Count,
			AvgNs:   st.Avg().Nanoseconds(),
			MinNs:   st.Min.Nanoseconds(),
			MaxNs:   st.Max.Nanoseconds(),
			TotalNs: st.Total.Nanoseconds(),
		})
	}
	return out, nil
}

// repeatsPerRow is how many times every row is measured; the row
// records the median of its repeats with their min and max.
const repeatsPerRow = 5

// bench measures one testing.Benchmark row repeatsPerRow times and
// returns its median record; windows > 0 marks a throughput row.
func bench(name string, par, windows int, f func(b *testing.B)) benchRecord {
	rec, _ := repeat(func() (benchRecord, error) {
		return record(name, par, testing.Benchmark(f), windows), nil
	})
	return rec
}

// repeat runs one row's measurement repeatsPerRow times and returns the
// median record with its spread.
func repeat(run func() (benchRecord, error)) (benchRecord, error) {
	runs := make([]benchRecord, repeatsPerRow)
	for i := range runs {
		r, err := run()
		if err != nil {
			return benchRecord{}, err
		}
		runs[i] = r
	}
	return medianRecord(runs), nil
}

// medianRecord folds repeats of one row into a record whose every metric
// is the median over the repeats (the upper median for an even count),
// with the min and max of ns/op, windows/sec and read QPS as the spread.
func medianRecord(runs []benchRecord) benchRecord {
	out := runs[0]
	out.Runs = len(runs)
	out.NsPerOp, out.NsPerOpMin, out.NsPerOpMax = spread(runs, func(r benchRecord) int64 { return r.NsPerOp })
	out.AllocsPerOp, _, _ = spread(runs, func(r benchRecord) int64 { return r.AllocsPerOp })
	out.BytesPerOp, _, _ = spread(runs, func(r benchRecord) int64 { return r.BytesPerOp })
	out.WindowsPerSec, out.WindowsMin, out.WindowsMax = spread(runs, func(r benchRecord) float64 { return r.WindowsPerSec })
	out.ReadQPS, out.ReadQPSMin, out.ReadQPSMax = spread(runs, func(r benchRecord) float64 { return r.ReadQPS })
	out.P50Ms, _, _ = spread(runs, func(r benchRecord) float64 { return r.P50Ms })
	out.P99Ms, _, _ = spread(runs, func(r benchRecord) float64 { return r.P99Ms })
	out.P999Ms, _, _ = spread(runs, func(r benchRecord) float64 { return r.P999Ms })
	return out
}

// spread returns the (upper) median, min and max of one metric over runs.
func spread[T int64 | float64](runs []benchRecord, get func(benchRecord) T) (med, lo, hi T) {
	v := make([]T, len(runs))
	for i, r := range runs {
		v[i] = get(r)
	}
	slices.Sort(v)
	return v[len(v)/2], v[0], v[len(v)-1]
}

func record(name string, par int, r testing.BenchmarkResult, windows int) benchRecord {
	rec := benchRecord{
		Name:        name,
		Parallelism: par,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if windows > 0 && r.T > 0 {
		rec.WindowsPerSec = float64(windows) * float64(r.N) / r.T.Seconds()
	}
	return rec
}

// fittedObs2D runs one simulated window through the pipeline
// front-end to obtain a realistic fitted observation set.
func fittedObs2D() ([]core.Observation, core.Bounds, error) {
	scene, err := sim.NewScene(sim.PaperAntennas2D(nil), rf.CleanSpace(), sim.DefaultConfig(), 11)
	if err != nil {
		return nil, core.Bounds{}, err
	}
	bounds := rfprism.Bounds2D(sim.PaperRegion())
	sys, err := rfprism.NewSystem(rfprism.DeploymentFromSim(scene.Antennas), bounds)
	if err != nil {
		return nil, core.Bounds{}, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, core.Bounds{}, err
	}
	tag := scene.NewTag("bench2d")
	res, err := sys.ProcessWindow(scene.CollectWindow(tag, scene.Place(geom.Vec3{X: 0.8, Y: 1.3}, 0.4, none)))
	if err != nil {
		return nil, core.Bounds{}, err
	}
	obs := make([]core.Observation, 0, len(scene.Antennas))
	for i, ant := range scene.Antennas {
		obs = append(obs, core.Observation{
			ID: ant.ID, Pos: ant.Pos, Frame: ant.Frame(), Line: res.Lines[i],
		})
	}
	return obs, bounds, nil
}

func fittedObs3D() ([]core.Observation, core.Bounds, error) {
	scene, err := sim.NewScene(sim.PaperAntennas3D(nil), rf.CleanSpace(), sim.DefaultConfig(), 12)
	if err != nil {
		return nil, core.Bounds{}, err
	}
	bounds := rfprism.Bounds2D(sim.PaperRegion())
	bounds.ZMin, bounds.ZMax = 0, 0.8
	sys, err := rfprism.NewSystem(rfprism.DeploymentFromSim(scene.Antennas), bounds, rfprism.WithMode3D())
	if err != nil {
		return nil, core.Bounds{}, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, core.Bounds{}, err
	}
	tag := scene.NewTag("bench3d")
	pl := sim.Static{
		Pos:          geom.Vec3{X: 0.9, Y: 1.4, Z: 0.3},
		Polarization: rf.TagPolarization3D(0.7, 0.3),
		Material:     none,
		Attach:       rf.Attach(none, rf.AttachmentJitter{}, nil),
	}
	res, err := sys.ProcessWindow(scene.CollectWindow(tag, pl))
	if err != nil {
		return nil, core.Bounds{}, err
	}
	obs := make([]core.Observation, 0, len(scene.Antennas))
	for i, ant := range scene.Antennas {
		obs = append(obs, core.Observation{
			ID: ant.ID, Pos: ant.Pos, Frame: ant.Frame(), Line: res.Lines[i],
		})
	}
	return obs, bounds, nil
}

func batchWindows() (*sim.Scene, []rfprism.Window, error) {
	scene, err := sim.NewScene(sim.PaperAntennas2D(nil), rf.CleanSpace(), sim.DefaultConfig(), 13)
	if err != nil {
		return nil, nil, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, nil, err
	}
	tag := scene.NewTag("bench-batch")
	wins := make([]rfprism.Window, 16)
	for i := range wins {
		pos := geom.Vec3{X: 0.4 + 0.08*float64(i), Y: 1.0 + 0.07*float64(i)}
		wins[i] = rfprism.Window{Readings: scene.CollectWindow(tag, scene.Place(pos, 0.3, none))}
	}
	return scene, wins, nil
}

// streamWindows collects a tagged streaming replay: one tag in a
// move-and-dwell pattern — hop ~6 cm, then hold still for three
// windows — over 32 sequential windows. The dwell phases exercise the
// stationary-tag cache, every hop misses it and solves cold, and the
// tag on every window routes the fast-path state by EPC.
func streamWindows() (*sim.Scene, []rfprism.Window, error) {
	scene, err := sim.NewScene(sim.PaperAntennas2D(nil), rf.CleanSpace(), sim.DefaultConfig(), 16)
	if err != nil {
		return nil, nil, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, nil, err
	}
	tag := scene.NewTag("bench-stream")
	wins := make([]rfprism.Window, 32)
	for i := range wins {
		hop := float64(i / 4) // advance every 4th window, dwell between
		pos := geom.Vec3{X: 0.5 + 0.05*hop, Y: 1.1 + 0.04*hop}
		alpha := 0.3 + 0.05*hop
		wins[i] = rfprism.Window{Tag: "bench-stream", Readings: scene.CollectWindow(tag, scene.Place(pos, alpha, none))}
	}
	return scene, wins, nil
}

// degradedWindows collects a batch through a fault injector killing
// one antenna of the four-antenna redundant deployment and eating 10%
// of the readings in bursts, so the batch exercises the degraded
// (subset-solving) path end to end.
func degradedWindows() (*sim.Scene, []rfprism.Window, error) {
	scene, err := sim.NewScene(sim.PaperAntennas2DRedundant(nil), rf.CleanSpace(), sim.DefaultConfig(), 14)
	if err != nil {
		return nil, nil, err
	}
	fi, err := sim.NewFaultInjector(scene, sim.FaultConfig{
		DeadAntennas:  []int{3},
		BurstLossProb: sim.BurstLossEntryProb(0.10, 20),
	}, 15)
	if err != nil {
		return nil, nil, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, nil, err
	}
	tag := scene.NewTag("bench-degraded")
	wins := make([]rfprism.Window, 16)
	for i := range wins {
		pos := geom.Vec3{X: 0.4 + 0.08*float64(i), Y: 1.0 + 0.07*float64(i)}
		wins[i] = rfprism.Window{Readings: fi.CollectWindow(tag, scene.Place(pos, 0.3, none))}
	}
	return scene, wins, nil
}
