// Command perfbench is the end-to-end benchmark of the RF-Prism stack:
// seeded simulator streams posted through rfprism-router into three
// journaled shards, measured from the POST to the result's SSE frame,
// with per-layer numbers from a separate traced run. See README.md.
//
//	bash perfbench/run.sh --workload portal|shelf|dashboard --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// rounds overrides the timed rounds derived from seconds (tests).
	rounds int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// dir holds the shards' journals while the run lasts.
	dir string
	// log receives the human-readable report lines.
	log io.Writer
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var seconds int
	flag.StringVar(&cfg.workload, "workload", "", "workload: portal|shelf|dashboard")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (tag poses, tag diversity, noise)")
	flag.IntVar(&seconds, "seconds", 10, "nominal length of the timed phase; sizes the fixed work of the run")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds ≥ 1 and --trace 0|1")
		os.Exit(2)
	}
	cfg.seconds, cfg.trace, cfg.setups, cfg.log = float64(seconds), trace == 1, 15, os.Stdout
	cfg.dir = filepath.Join(".bench_build", "perfbench-run", fmt.Sprint(os.Getpid()))
	res, err := bench(cfg)
	if rerr := os.RemoveAll(cfg.dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for name, m := range res.Metrics {
		// A figure the run could not measure (no samples, after a
		// failed check) has no JSON form; the run is incorrect anyway.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", name)
			res.Correct = false
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench runs the invocation: an untraced run for the end-to-end
// metrics, or, with trace set, an untraced and a traced run whose
// windows_per_s ratio is the tracing overhead, reporting the traced
// run's per-layer metrics.
func bench(cfg config) (result, error) {
	if !cfg.trace {
		r, err := runOnce(cfg, false)
		if err != nil {
			return result{}, err
		}
		return r.endToEnd(), nil
	}
	plain := cfg
	plain.setups = 1
	u, err := runOnce(plain, false)
	if err != nil {
		return result{}, err
	}
	t, err := runOnce(cfg, true)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "# tracing overhead: windows_per_s untraced %.3f, traced %.3f (traced/untraced %.3f)\n",
		u.windowsPerS, t.windowsPerS, t.windowsPerS/u.windowsPerS)
	res := t.perLayer()
	res.Correct = res.Correct && u.correct
	return res, nil
}
