package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The benchmark reads its inputs relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at its smallest size, traced, through
// the same measuring code the command uses, and fails on any failed
// operation or missing metric.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, 1, 0.01, true, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.failures {
				t.Error(f)
			}
			if res.attempted == 0 {
				t.Error("no operation attempted")
			}
			for _, n := range endToEnd {
				if v, ok := res.e2e[n]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v", n, v)
				}
			}
			for _, n := range perLayer() {
				if _, ok := res.layer[n]; !ok {
					t.Errorf("per-layer metric %s missing", n)
				}
			}
			if len(res.layer) != len(perLayer()) {
				t.Errorf("%d per-layer metrics, want %d", len(res.layer), len(perLayer()))
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the command reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, names []string, units map[string]string) {
		if len(got) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(names))
			return
		}
		for i, m := range got {
			if m.Name != names[i] || m.Unit != unitOf(names[i], units) {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the command reports %s (%s)",
					kind, i, m.Name, m.Unit, names[i], unitOf(names[i], units))
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, e2eUnits)
	check("per_layer", doc.PerLayer, perLayer(), layerUnits)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the command %s", i, w.Name, workloads[i].name)
		}
	}
}
