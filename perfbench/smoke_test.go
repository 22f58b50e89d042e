package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec reads the metric lists from the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []metricSpec) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
		}
	}
	return spec.EndToEnd, spec.PerLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeEveryWorkload runs each workload at a tiny scale in both modes
// and checks the result line: correct, and exactly the BENCHMARK.json
// metrics of its mode, each with its unit and a finite value.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, name := range []string{"cold-csr", "cold-socket", "warm-k3"} {
		for _, traced := range []bool{false, true} {
			res := smallRun(t, options{workload: name, trace: traced})
			want := endToEnd
			if traced {
				want = perLayer
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Fatalf("%s trace=%v: failed %d of %d: %v", name, traced, res.failed, res.attempted, res.failures)
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, traced, m.Name, got.Value)
				}
			}
			if traced {
				hit := res.metrics["serve.matrix_hit_ratio"].Value
				if wantHit := map[bool]float64{true: 1, false: 0}[name == "warm-k3"]; hit != wantHit {
					t.Errorf("%s: serve.matrix_hit_ratio = %v, want %v", name, hit, wantHit)
				}
			}
			line, err := res.line()
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil {
				t.Fatal(err)
			}
			if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
				t.Errorf("result line keys %s, want exactly correct, attempted, failed, metrics", line)
			}
		}
	}
}
