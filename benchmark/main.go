// Command benchmark is the ulixes benchmark: four named workloads against
// ulixesd and the in-process library path, each checked for correct answers,
// with end-to-end metrics from an untraced run and per-layer metrics from a
// separate traced run. README.md in this directory describes the workloads,
// every metric and how the layers are expected to move them.
//
//	bash benchmark/run.sh                          all four workloads, one run each
//	bash benchmark/run.sh -trace 1                 the traced runs: per-layer metrics, span files
//	bash benchmark/run.sh -repeat 2                twice, and compare the gated metrics
//	bash benchmark/run.sh -update-golden           recompute golden/*.json from the oracle
//	bash benchmark/run.sh --workload warm_repeat --seed 7 --seconds 16 --trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload, and as
// the last line of standard output one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var workloads = []string{"warm_repeat", "cold_shapes", "rtt_navigate", "mutate_mix"}

// runWorkload is one untraced run.
func runWorkload(ctx context.Context, root, workload string, seed int64, seconds float64) (*outcome, error) {
	switch workload {
	case "warm_repeat":
		return runWarmRepeat(ctx, root, seed, seconds)
	case "cold_shapes":
		return runColdShapes(ctx, root, seed, seconds)
	case "rtt_navigate":
		return runRTTNavigate(ctx, root, seed, seconds)
	case "mutate_mix":
		return runMutateMix(ctx, root, seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", workload, strings.Join(workloads, ", "))
}

// endToEnd are the metrics of an untraced run, by the names BENCHMARK.json
// gates them under.
func (o *outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s": {median(o.Setups), "s"},
		"qps":     {o.Rate, "1/s"},
		"p50_ms":  {o.Lat.P50, "ms"},
		"p90_ms":  {o.Lat.P90, "ms"},
	}
}

// contractLine is the last line of standard output in one-workload mode.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints one run for the operator.
func report(o *outcome, traced bool) {
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d, fail_ratio %.4f\n", o.Workload, o.Attempted, o.Failed, o.failRatio())
	for _, e := range o.Errors {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", e)
	}
	show := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	if traced {
		show(o.Layers)
		return
	}
	show(o.endToEnd())
	fmt.Fprintf(os.Stderr, "  %-32s %14d samples, %d beyond p90, %d set-ups\n", "n", o.Lat.N, o.Lat.Beyond90, len(o.Setups))
	if o.Lat.P99 > 0 {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f ms (informational)\n", "p99_ms", o.Lat.P99)
	}
	if o.Lat.P999 > 0 {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f ms (informational)\n", "p999_ms", o.Lat.P999)
	}
	show(o.Extra)
}

// bounds reads the regression bound of each end-to-end metric from
// BENCHMARK.json.
func bounds(root string) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// disagreements lists the gated metrics on which two runs of one workload
// differ by more than the metric's bound, as a share of their mean.
func disagreements(a, b *outcome, bound map[string]float64) []string {
	var out []string
	am, bm := a.endToEnd(), b.endToEnd()
	for name, limit := range bound {
		x, y := am[name].Value, bm[name].Value
		if diff := math.Abs(x-y) / ((x + y) / 2); diff > limit {
			out = append(out, fmt.Sprintf("%s %s: %.4f vs %.4f differ by %.1f%%, bound %.0f%%", a.Workload, name, x, y, 100*diff, 100*limit))
		}
	}
	sort.Strings(out)
	return out
}

func main() {
	workload := flag.String("workload", "", "run this workload only and print the contract's result line (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: same seed, same generated inputs")
	seconds := flag.Float64("seconds", 16, "length of the measured part of a run")
	trace := flag.Int("trace", 0, "1: traced run, printing the per-layer metrics and writing benchmark/out/trace-<workload>.json")
	repeat := flag.Int("repeat", 1, "run every workload this many times; exit non-zero if a gated metric differs between runs by more than its bound")
	update := flag.Bool("update-golden", false, "recompute benchmark/golden/*.json from the sequential oracle and exit")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *repeat, *update); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(only string, seed int64, seconds float64, traced bool, repeat int, update bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if update {
		return updateGolden(root)
	}
	ctx := context.Background()
	one := func(workload string) (*outcome, error) {
		var o *outcome
		var err error
		if traced {
			o, err = traceRun(ctx, root, workload, seed, seconds)
		} else {
			o, err = runWorkload(ctx, root, workload, seed, seconds)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		report(o, traced)
		return o, nil
	}

	if only != "" {
		o, err := one(only)
		if err != nil {
			return err
		}
		line := contractLine{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: o.endToEnd()}
		if traced {
			line.Metrics = o.Layers
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		if o.Failed != 0 {
			return fmt.Errorf("%s: %d of %d operations failed", only, o.Failed, o.Attempted)
		}
		return nil
	}

	bound, err := bounds(root)
	if err != nil {
		return err
	}
	var problems []string
	all := make(map[string][]*outcome)
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			o, err := one(w)
			if err != nil {
				return err
			}
			if o.Failed != 0 {
				problems = append(problems, fmt.Sprintf("%s: %d of %d operations failed", w, o.Failed, o.Attempted))
			}
			for _, earlier := range all[w] {
				problems = append(problems, disagreements(earlier, o, bound)...)
			}
			all[w] = append(all[w], o)
		}
	}
	// Every metric of every run, by workload, name and unit.
	summary := make(map[string][]map[string]metric)
	for w, runs := range all {
		for _, o := range runs {
			ms := o.endToEnd()
			if traced {
				ms = o.Layers
			}
			ms["fail_ratio"] = metric{o.failRatio(), "ratio"}
			ms["n"] = metric{float64(o.Lat.N), "count"}
			for name, m := range o.Extra {
				ms[name] = m
			}
			summary[w] = append(summary[w], ms)
		}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if len(problems) > 0 {
		return fmt.Errorf("%d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}
