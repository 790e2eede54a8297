package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestSmoke builds and spawns ulixesd and runs every workload for one second,
// then one traced run; each must finish without a failed operation, and the
// metrics printed must be exactly those BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns ulixesd; skipped under -short")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	sameMetrics := func(what string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		var g, w []string
		for name, m := range got {
			g = append(g, name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.Name+" "+m.Unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if len(g) != len(w) {
			t.Errorf("%s: harness prints %d metrics %v, BENCHMARK.json lists %d %v", what, len(g), g, len(w), w)
			return
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: harness prints %q where BENCHMARK.json lists %q", what, g[i], w[i])
			}
		}
	}

	ctx := context.Background()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w)
		}
		o, err := runWorkload(ctx, "..", w, 5, 1)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w, o.Failed, o.Attempted, o.Errors)
		}
		sameMetrics(w, o.endToEnd(), spec.EndToEnd)
		for name, m := range o.endToEnd() {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics must never be 0", w, name, m.Value)
			}
		}
	}
	o, err := traceRun(ctx, "..", "mutate_mix", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 {
		t.Errorf("traced mutate_mix: %d of %d operations failed: %v", o.Failed, o.Attempted, o.Errors)
	}
	sameMetrics("traced mutate_mix", o.Layers, spec.PerLayer)
	if _, err := os.Stat("out/trace-mutate_mix.json"); err != nil {
		t.Errorf("span file: %v", err)
	}
}
