package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestEveryMetricPrinted runs each workload at a small size, untraced
// and traced, and checks that the printed result is correct and names
// every metric BENCHMARK.json declares for that kind of run, with its
// unit.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var log bytes.Buffer
			// Enough rounds for the accuracy and coverage checks to hold.
			rounds := map[string]int{"portal": 4, "shelf": 2, "dashboard": 8}[wl.Name]
			cfg := config{workload: wl.Name, seed: 3, seconds: 1, trace: trace, rounds: max(rounds, 2), setups: 2,
				dir: t.TempDir(), log: &log}
			res, err := bench(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d\n%s", wl.Name, trace, res.Correct, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json declares %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
