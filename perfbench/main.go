// Command perfbench is the repository benchmark: it runs one named
// workload against streach's public entry points, checks every answer
// against a brute-force oracle, and prints its metrics as one JSON object
// on the last line of standard output. README.md describes the workloads
// and every metric; run.py builds this package and runs it.
//
//	perfbench --workload graph-disk --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// traceDir receives the span file of a traced run.
	traceDir string
	// tiny shrinks datasets and rates for the self-check tests.
	tiny bool
	// maxQueries, when positive, stops the queries of each timed phase
	// after that many instead of after the phase's share of seconds. The
	// self-check uses it to make two runs do identical work.
	maxQueries int
}

// runner runs one workload and returns its report.
type runner func(cfg config) (*report, error)

var workloads = map[string]runner{
	"serve-live": runServeLive,
	"graph-disk": runGraphDisk,
	"grid-warm":  runGridWarm,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-live, graph-disk or grid-warm")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated queries and feed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "directory for the span file of a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	rep.settings["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.settings["seed"] = cfg.seed
	rep.settings["seconds"] = cfg.seconds
	rep.settings["trace"] = trace
	rep.settings["workload"] = cfg.workload
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"settings": rep.settings, "samples": rep.samples}); err != nil {
		os.Exit(1)
	}
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layer
	}
	if err := enc.Encode(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	}); err != nil {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
