package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/synth"
	"repro/internal/systems"
)

// batchWorkers is the scenario worker count of the batch workloads: one
// per CPU of the 2-CPU reference machine, so the two scale-100 cells run
// side by side.
const batchWorkers = 2

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

// specSeed maps the benchmark seed onto the built-in's seed field, so the
// default seed reproduces the built-in exactly.
func specSeed(seed int64) int64 { return 42 + seed }

// generateSpec renders a built-in scenario as a spec document with the
// given seed and, when days > 0, accounting window. The program under
// test sees only this document.
func generateSpec(builtin string, seed int64, days int) ([]byte, error) {
	src, err := scenario.BuiltinJSON(builtin)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(src), &doc); err != nil {
		return nil, err
	}
	doc["seed"] = seed
	if days > 0 {
		doc["days"] = days
	}
	return json.Marshal(doc)
}

// pipelineOut is what one spec-in, report-out pass produced.
type pipelineOut struct {
	report  *scenario.Report
	text    string
	json    []byte
	tasks   int
	elapsed time.Duration
}

// pipeline runs a spec document the way dcscen -json does: parse,
// compile, run every cell, render the text report and encode the JSON
// one. With a tracer it records a span around each of those calls and
// one per simulated cell.
func pipeline(ctx context.Context, specJSON []byte, workers int, tr *tracer, op int) (pipelineOut, error) {
	start := time.Now()
	root := tr.open("scenario.pipeline", op, nil)
	defer root.close()

	sp := tr.open("scenario.parse", op, root)
	spec, err := scenario.ParseBytes(specJSON)
	sp.close()
	if err != nil {
		return pipelineOut{}, err
	}
	sp = tr.open("scenario.compile", op, root)
	c, err := scenario.Compile(spec)
	sp.close()
	if err != nil {
		return pipelineOut{}, err
	}
	sp = tr.open("scenario.run", op, root)
	rep, err := c.RunContext(ctx, workers, tr.cellSink(op, sp))
	sp.close()
	if err != nil {
		return pipelineOut{}, err
	}
	sp = tr.open("scenario.render", op, root)
	text := rep.Render()
	sp.close()
	sp = tr.open("scenario.encode", op, root)
	data, err := json.Marshal(rep)
	sp.close()
	if err != nil {
		return pipelineOut{}, err
	}
	return pipelineOut{report: rep, text: text, json: data, tasks: tasksSimulated(rep), elapsed: time.Since(start)}, nil
}

// runBatch measures one built-in scenario end to end, spec in and report
// out, iteration after iteration for the run's duration.
func runBatch(o options) (*result, error) {
	ctx := context.Background()
	days := 0
	if o.tiny {
		days = 1
	}
	specJSON, err := generateSpec(o.workload, specSeed(o.seed), days)
	if err != nil {
		return nil, err
	}
	res := &result{}

	// Set-up: the same scenario over a one-day window, end to end, so
	// every code path and lazy initialization has run before timing.
	warm, err := generateSpec(o.workload, specSeed(o.seed), 1)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		if _, err := pipeline(ctx, warm, batchWorkers, nil, 0); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Timed phase. A traced run alternates traced and untraced
	// iterations, so the trace's own cost can be read off the pair.
	var tr *tracer
	minIters := 3
	if o.trace {
		tr = newTracer()
		minIters = 4
	}
	var latency, traced, untraced, rates, peaks []float64
	tasks := 0
	firstDigest := ""
	before := readRuntime()
	peak := startHeapPeak()
	begin := time.Now()
	for i := 0; i < minIters || time.Since(begin).Seconds() < o.seconds; i++ {
		var itr *tracer
		if i%2 == 0 {
			itr = tr
		}
		res.attempted++
		peak.take()
		out, err := pipeline(ctx, specJSON, batchWorkers, itr, i)
		peaks = append(peaks, peak.take())
		if err == nil {
			err = checkReport(out.report)
		}
		if err == nil {
			d := digest(out.json)
			if firstDigest == "" {
				firstDigest = d
			} else if d != firstDigest {
				err = fmt.Errorf("report differs from iteration 0 on the same spec")
			}
			if err == nil && o.seed == defaultSeed {
				err = checkDigest(digestKey(o.workload, o.tiny), out.json)
			}
		}
		if err != nil {
			res.fail(fmt.Errorf("iteration %d: %w", i, err))
			continue
		}
		secs := out.elapsed.Seconds()
		latency = append(latency, secs*1000)
		rates = append(rates, float64(out.tasks)/secs)
		tasks += out.tasks
		if itr != nil {
			traced = append(traced, secs)
		} else {
			untraced = append(untraced, secs)
		}
	}
	peak.end()
	delta := readRuntime().sub(before)
	ops := len(latency)
	res.samples = ops
	res.digest = firstDigest

	if !o.trace {
		res.add("setup_s", median(setups), "s")
		res.add("tasks_per_s", median(rates), "1/s")
		res.add("alloc_bytes_per_task", perTask(delta.allocBytes, tasks), "B/task")
		res.add("allocs_per_task", perTask(delta.allocObjs, tasks), "allocs/task")
		res.add("peak_heap_mb", median(peaks)/(1<<20), "MB")
		// A run has fewer than twenty iterations, too few for a p90 with
		// ten samples beyond it, so the batch workloads report the median
		// as their highest supported percentile under both names.
		res.add("serve_p50_ms", median(latency), "ms")
		res.add("serve_p90_ms", median(latency), "ms")
		res.add("serve_cpu_ms_per_run", perOp(float64(delta.processCPU)/1e6, ops), "ms")
		return res, nil
	}

	spec, err := scenario.ParseBytes(specJSON)
	if err != nil {
		return nil, err
	}
	standalone, err := standaloneCompileParts(spec)
	if err != nil {
		return nil, err
	}
	addPipelineLayers(res, tr, standalone)
	addRuntimeLayers(res, delta, ops)
	addServiceLayers(res, servedLayers{})
	res.add("trace.overhead_frac", overhead(traced, untraced), "ratio")
	return res, tr.write(traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}

// compileParts are the standalone timings that apportion the compile
// span: synthesis of every synthetic provider, one validation pass and
// one deep clone of the compiled workloads.
type compileParts struct {
	generate, validate, clone float64
}

// standaloneRepeats is how many times the standalone calls run; each
// part reports its median.
const standaloneRepeats = 3

// standaloneCompileParts times Model.Generate, systems.ValidateWorkloads
// and systems.CloneWorkloads on the inputs Compile builds for spec.
func standaloneCompileParts(spec *scenario.Spec) (compileParts, error) {
	c, err := scenario.Compile(spec)
	if err != nil {
		return compileParts{}, err
	}
	var generate, validate, clone []float64
	for r := 0; r < standaloneRepeats; r++ {
		total := 0.0
		position := int64(0)
		for i := range spec.Providers {
			p := &spec.Providers[i]
			for k := 0; k < p.Count; k++ {
				seed := spec.Seed + position
				if p.Seed != nil {
					seed = *p.Seed + int64(k)
				}
				position++
				model := synthModel(spec, p, seed)
				if model == nil {
					continue
				}
				start := time.Now()
				if _, err := model.Generate(); err != nil {
					return compileParts{}, err
				}
				total += time.Since(start).Seconds()
			}
		}
		generate = append(generate, total)

		start := time.Now()
		if err := systems.ValidateWorkloads(c.Workloads); err != nil {
			return compileParts{}, err
		}
		validate = append(validate, time.Since(start).Seconds())

		start = time.Now()
		cloned := systems.CloneWorkloads(c.Workloads)
		clone = append(clone, time.Since(start).Seconds())
		if len(cloned) != len(c.Workloads) {
			return compileParts{}, fmt.Errorf("clone returned %d workloads for %d", len(cloned), len(c.Workloads))
		}
	}
	return compileParts{generate: median(generate), validate: median(validate), clone: median(clone)}, nil
}

// synthModel rebuilds the synthetic model Compile uses for a provider,
// nil for providers with another source.
func synthModel(spec *scenario.Spec, p *scenario.ProviderSpec, seed int64) *synth.Model {
	if p.Source.Kind != "synth" {
		return nil
	}
	var model *synth.Model
	switch p.Source.Model {
	case "nasa":
		model = synth.NASAiPSC(seed)
		model.Days = spec.Days
	case "blue":
		model = synth.SDSCBlueWindowed(seed, spec.Days)
	case "million":
		model = synth.MillionTaskWindowed(seed, spec.Days)
	default:
		return nil
	}
	if p.Source.Util > 0 {
		model.TargetUtil = p.Source.Util
	}
	return model
}

// addPipelineLayers reports the scenario layers from the traced
// pipeline spans, each the median over traced operations.
func addPipelineLayers(res *result, tr *tracer, parts compileParts) {
	res.add("scenario.pipeline_s", tr.medianPerOp("scenario.pipeline", sumSeconds), "s")
	res.add("scenario.compile_s", tr.medianPerOp("scenario.compile", sumSeconds), "s")
	res.add("synth.generate_s", parts.generate, "s")
	res.add("systems.validate_s", parts.validate, "s")
	res.add("systems.clone_s", parts.clone, "s")
	res.add("scenario.cell_s.sum", tr.medianPerOp("scenario.cell", sumSeconds), "s")
	res.add("scenario.cell_s.max", tr.medianPerOp("scenario.cell", maxSeconds), "s")
	cells := tr.byName("scenario.cell")
	var overlap []float64
	for op, runs := range tr.byName("scenario.run") {
		if wall := sumSeconds(runs); wall > 0 {
			overlap = append(overlap, sumSeconds(cells[op])/wall)
		}
	}
	res.add("scenario.cell_overlap", median(overlap), "ratio")
	res.add("scenario.render_ms", tr.medianPerOp("scenario.render", sumSeconds)*1000, "ms")
	res.add("scenario.encode_ms", tr.medianPerOp("scenario.encode", sumSeconds)*1000, "ms")
}

// addRuntimeLayers reports garbage collection over the timed phase.
func addRuntimeLayers(res *result, delta runtimeStats, ops int) {
	res.add("runtime.gc_cycles", perOp(delta.gcCycles, ops), "count/run")
	frac := 0.0
	if delta.busyCPU > 0 {
		frac = delta.gcCPU / delta.busyCPU
	}
	res.add("runtime.gc_cpu_frac", frac, "ratio")
}

// overhead is how much slower the traced operations ran than the
// untraced ones, by median.
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return median(traced)/median(untraced) - 1
}

func perTask(v float64, tasks int) float64 {
	if tasks == 0 {
		return 0
	}
	return v / float64(tasks)
}

func perOp(v float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}
