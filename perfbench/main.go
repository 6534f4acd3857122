// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in-process and prints every metric by name with its unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// Workloads:
//
//	million-task   the million-task built-in, spec in to report out
//	served-stream  streaming-baseline specs POSTed to an in-process dcserve
//	               API at a fixed open-loop rate, each followed to done
//	scale-100      the scale-100 built-in, spec in to report out; not in
//	               BENCHMARK.json, for runs by hand
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer, prints the per-layer
// metrics and writes the spans to .bench_build/trace/. Every output is
// checked; a failed check counts as a failed operation and the command
// exits 1. Run it from the repository root through perfbench/run.sh,
// which builds it first:
//
//	bash perfbench/run.sh --workload million-task --seed 0 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Output locations, relative to the repository root the command runs in.
var (
	traceDir   = filepath.Join(".bench_build", "trace")
	scratchDir = filepath.Join(".bench_build", "tmp")
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a one-day window (and served-stream
	// to a handful of requests) for the self-test.
	tiny bool
	// rate overrides served-stream's offered rate, to measure where the
	// service saturates.
	rate float64
}

// metric is one named reading.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome: operations attempted and failed, the
// problems found, and the metrics.
type result struct {
	attempted, failed int
	samples           int
	digest            string
	problems          []error
	metrics           map[string]metric
}

func (r *result) add(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// fail counts an operation that errored or whose output failed a check.
func (r *result) fail(err error) {
	r.failed++
	r.problems = append(r.problems, err)
}

// invalid marks the whole run as not measuring what it claims.
func (r *result) invalid(err error) { r.problems = append(r.problems, err) }

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "million-task, scale-100 or served-stream")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 50, "how long the timed phase runs")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "one-day inputs and few requests (self-test size)")
	fs.Float64Var(&o.rate, "rate", servedRate, "served-stream offered load in requests per second")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 || o.rate <= 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload W [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	o.trace = trace == 1

	var res *result
	var err error
	switch o.workload {
	case "million-task", "scale-100":
		res, err = runBatch(o)
	case "served-stream":
		res, err = runServed(o)
	default:
		err = fmt.Errorf("unknown workload %q (known: million-task, scale-100, served-stream)", o.workload)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %v\n", o.workload, p)
	}
	if err := report(stdout, o, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// report prints one line per metric, then the JSON result line.
func report(w io.Writer, o options, res *result) error {
	failRatio := 0.0
	if res.attempted > 0 {
		failRatio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d attempted, %d failed, %d samples, report sha256 %s\n",
		o.workload, o.seed, o.trace, res.attempted, res.failed, res.samples, res.digest)
	fmt.Fprintf(w, "  %-28s %14.6g %s\n", "fail_ratio", failRatio, "ratio")
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, res.metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
