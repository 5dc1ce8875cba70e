// Command perfbench is the same-host benchmark of the Infopipe runtime.  It
// runs one workload per invocation in a single process, checks every output
// against a reference computed from the seeded inputs, and prints a run
// record followed, as its last line, by one JSON object with the metrics
// named in BENCHMARK.json.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload shard-fanout --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics (untraced runs only); --trace 1
// makes the traced run and reports the per-layer metrics.  See README.md
// for the workloads, the metric → layer → workload map and the A/B
// procedure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	source   string // digest of the benchmarked sources, supplied by run.py
	commit   string // checked-out commit, supplied by run.py
	spec     benchSpec
}

// budget returns a share of the run's measuring time.
func (c config) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// workloadFunc runs one workload and fills rec.
type workloadFunc func(cfg config, rec *record) error

// workloads maps each workload name to its runner.  Each runner's file
// states why the workload is in the benchmark.
var workloads = map[string]workloadFunc{
	"shard-fanout": runFanout,
	"node-lanes":   runLanes,
	"tenant-churn": runChurn,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (shard-fanout, node-lanes, tenant-churn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measuring time of one run, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 makes the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.source, "source-digest", "", "digest of the benchmarked source tree")
	flag.StringVar(&cfg.commit, "commit", "", "commit of the benchmarked source tree")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}

	cfg.spec = spec
	rec := newRecord()
	printHost(cfg)
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", cfg.workload, cfg.seed, cfg.seconds, traceFlag)
	if err := run(cfg, rec); err != nil {
		rec.fail(fmt.Sprintf("run aborted: %v", err), 1)
	}
	rec.print()

	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	out, missing := rec.result(want)
	if len(missing) > 0 {
		rec.fail("metrics not produced: "+strings.Join(missing, ", "), 1)
		out, _ = rec.result(want)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ---------------------------------------------------------------- the spec

// specMetric is one metric declaration of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads the metric declarations the result line must match, so
// the program and BENCHMARK.json cannot drift apart silently.
func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// ---------------------------------------------------------------- the record

// metric is one measured value with its unit and the raw per-run values
// it summarises.
type metric struct {
	name, unit string
	value      float64
	raw        []float64
	note       string
}

// record collects a run's metrics and its attempted and failed work.
type record struct {
	metrics   map[string]*metric
	order     []string
	attempted int64
	failed    int64
}

func newRecord() *record { return &record{metrics: make(map[string]*metric)} }

// set records a metric; raw holds the per-run values behind value.
func (r *record) set(name, unit string, value float64, raw []float64, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = &metric{name: name, unit: unit, value: value, raw: raw, note: note}
}

// attempt counts n units of attempted work (items offered, operations).
func (r *record) attempt(n int64) { r.attempted += n }

// fail counts n failed units with the reason.
func (r *record) fail(reason string, n int64) {
	if n <= 0 {
		n = 1
	}
	r.failed += n
	fmt.Printf("FAILURE: %s\n", reason)
}

func (r *record) print() {
	for _, name := range r.order {
		m := r.metrics[name]
		raw := make([]string, len(m.raw))
		for i, v := range m.raw {
			raw[i] = fmt.Sprintf("%.6g", v)
		}
		line := fmt.Sprintf("metric %-32s %14.6g %-10s raw=[%s]", m.name, m.value, m.unit, strings.Join(raw, " "))
		if m.note != "" {
			line += "  # " + m.note
		}
		fmt.Println(line)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("metric %-32s %14.6g %-10s attempted=%d failed=%d\n", "error_rate", rate, "fraction", r.attempted, r.failed)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result builds the final JSON object from the declared metrics; it names
// every declared metric the run did not produce or produced in another
// unit.
func (r *record) result(want []specMetric) (jsonResult, []string) {
	out := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed++
	}
	var missing []string
	for _, w := range want {
		m, ok := r.metrics[w.Name]
		if !ok || m.unit != w.Unit {
			missing = append(missing, w.Name)
			continue
		}
		out.Metrics[w.Name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	out.Correct = out.Failed == 0 && len(missing) == 0
	return out, missing
}
