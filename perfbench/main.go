// Command perfbench is the repository benchmark. It drives one workload —
// serve-zipf or scaleout-sweep — from a seed, checks every output, and
// prints one JSON result line: end-to-end metrics with -trace 0, per-layer
// metrics from an in-process traced replay with -trace 1. BENCHMARK.json describes the workloads and metrics; run.sh
// builds the binaries and runs it:
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           []metric
}

func main() {
	workload := flag.String("workload", "", "serve-zipf or scaleout-sweep")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 45, "measured seconds; sizes the fixed request stream or pass count")
	trace := flag.Int("trace", 0, "1 = traced in-process replay reporting per-layer metrics")
	serveBin := flag.String("serve-bin", "", "ccube-serve binary (set by run.sh)")
	role := flag.String("role", "", "internal: sweep-setup or sweep (child processes)")
	flag.Parse()

	switch *role {
	case "sweep-setup":
		sweepSetupChild()
		return
	case "sweep":
		sweepChild(*seed, *seconds)
		return
	}

	res, err := run(*workload, *seed, *seconds, *trace == 1, *serveBin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		if res.metrics == nil {
			os.Exit(1)
		}
	}
	printResult(res, err == nil)
	if err != nil {
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, serveBin string) (result, error) {
	if seconds < 1 {
		return result{}, fmt.Errorf("-seconds must be >= 1")
	}
	if !slices.Contains(workloads, workload) {
		return result{}, fmt.Errorf("unknown workload %q", workload)
	}
	sp, isServe := serveSpecs[workload]
	switch {
	case traced:
		return traceWorkload(workload, seed, seconds)
	case isServe:
		if serveBin == "" {
			return result{}, fmt.Errorf("-serve-bin is required")
		}
		return runServe(sp, serveBin, seed, seconds)
	default:
		return runSweep(seed, seconds)
	}
}

func printResult(res result, correct bool) {
	ms := make(map[string]any, len(res.metrics))
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// buildDir is where run.sh puts binaries; traces are written next to them.
func buildDir() string {
	exe, err := os.Executable()
	if err != nil {
		return "."
	}
	return filepath.Dir(filepath.Dir(exe))
}
