// Command perfbench is the IFoT live-stack benchmark. It starts the real
// stack in one process (broker on loopback TCP, manager, two neuron
// modules), deploys a workload's recipe, drives it from a generator
// connection, reads every output on a sink connection, checks the outputs,
// and prints each metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Usage:
//
//	perfbench --workload fig9-paced --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an uninstrumented pass.
// --trace 1 runs that pass, then an instrumented pass over a fresh stack,
// and reports the per-layer metrics plus the instrumentation's overhead.
// See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// setupRuns is how many times the untraced pass brings the stack up;
// setup_s is their median. A set-up takes about 5 ms and its own spread
// is wide (a chain of loopback round trips and GC cycles), so the median
// needs many.
const setupRuns = 101

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig9-paced, fig9-saturate or fleet-anomaly")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: add a traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	window := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "perfbench %s seed=%d window=%v warmup=%v host: nproc=%d GOMAXPROCS=%d %s/%s %s\n",
		w.name, *seed, window, warmup, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Fprintf(stdout, "  %s\n", w.why)

	plain, err := runPass(passConfig{w: w, seed: *seed, seconds: window, setups: setupRuns})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printPass(stdout, "untraced", plain)
	e2e := endToEndValues(plain)
	printMetrics(stdout, "end-to-end", endToEnd, e2e)
	out := result{Correct: len(plain.failures) == 0, Attempted: plain.attempted, Failed: plain.lost}
	if *trace == 0 {
		out.Metrics = metricValues(endToEnd, e2e)
	} else {
		traced, err := runPass(passConfig{w: w, seed: *seed, seconds: window, setups: 1, traced: true})
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printPass(stdout, "traced", traced)
		layers := traced.layers
		_, announce, deploy, wait := medianSetup(plain.setups)
		layers["mgmt.announce_ms"] = announce * 1e3
		layers["mgmt.deploy_ms"] = deploy * 1e3
		layers["mgmt.wait_running_ms"] = wait * 1e3
		// Latencies come from the untraced pass. On a shared host they
		// swing from run to run by more than the largest usable
		// regression bound, so they are reported here rather than as
		// end-to-end metrics.
		layers["flow.p50_ms"] = plain.flow.p50
		layers["flow.train_p50_ms"] = plain.byKind[outTrain].p50
		layers["flow.decision_p50_ms"] = plain.byKind[outDecision].p50
		layers["flow.p90_ms"] = plain.flow.p90
		layers["flow.p99_ms"] = plain.flow.p99
		layers["trace.cpu_ratio"] = ratio(traced.cpuUs, plain.cpuUs)
		layers["trace.flow_p50_ratio"] = ratio(traced.flow.p50, plain.flow.p50)
		layers["trace.flows_per_s_ratio"] = ratio(traced.flowsPerS, plain.flowsPerS)
		printMetrics(stdout, "per-layer (traced pass)", perLayer, layers)
		out.Correct = out.Correct && len(traced.failures) == 0
		out.Attempted += traced.attempted
		out.Failed += traced.lost
		out.Metrics = metricValues(perLayer, layers)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func endToEndValues(r *passResult) map[string]float64 {
	setup, _, _, _ := medianSetup(r.setups)
	return map[string]float64{
		"setup_s":         setup,
		"flows_per_s":     r.flowsPerS,
		"cpu_us_per_flow": r.cpuUs,
		"heap_mb":         r.heapMB,
	}
}

func metricValues(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func printPass(w io.Writer, label string, r *passResult) {
	fmt.Fprintf(w, "%s pass: %d flows published (%d held for a full window), %d due in the window, %d lost, %d completed in the window\n",
		label, r.released, r.held, r.attempted, r.lost, r.completed)
	fmt.Fprintln(w, "  latency from due time, median over the window's seconds of each second's percentile:")
	for k, row := range []struct {
		name string
		s    summary
	}{{"flow", r.flow}, {"train", r.byKind[outTrain]}, {"decision", r.byKind[outDecision]}} {
		if k == 0 || row.s.n > 0 {
			fmt.Fprintf(w, "  %-9s p50 %.4f ms  p90 %.4f ms  p99 %.4f ms  (n=%d)\n", row.name, row.s.p50, row.s.p90, row.s.p99, row.s.n)
		}
	}
	fmt.Fprintf(w, "  loss_frac %.6f (missing: %d TrainEvents, %d Decisions; broker dropped %d messages)  generator lateness p99 %.4f ms\n",
		ratio(float64(r.lost), float64(r.attempted)), r.missing[outTrain], r.missing[outDecision], r.dropped, r.lateP99Ms)
	for _, c := range r.checks {
		fmt.Fprintf(w, "  check %s\n", c)
	}
}

func printMetrics(w io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}
