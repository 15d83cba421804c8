package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDeterminism runs every workload twice at a tiny size with one seed,
// traced, and checks that every metric BENCHMARK.json names is reported
// with its unit, that nothing failed, and that graph-disk's page and
// expansion counts repeat exactly.
func TestDeterminism(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	exact := []string{
		"pagefile.pages_read_per_query", "pagefile.random_reads_per_query",
		"pagefile.normalized_io_per_query", "pagefile.evictions_per_query",
		"core.expanded_per_point", "core.expanded_per_set", "core.expanded_per_arrival",
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("no workload %q", w.Name)
			}
			var reps [2]*report
			for i := range reps {
				for _, trace := range []bool{false, true} {
					cfg := config{workload: w.Name, seed: 7, seconds: 2, trace: trace, traceDir: t.TempDir(), tiny: true, maxQueries: 40}
					rep, err := run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if rep.attempted == 0 || rep.failed != 0 {
						t.Fatalf("run %d trace %v: attempted %d, failed %d (%d mismatches)", i, trace, rep.attempted, rep.failed, rep.mismatches)
					}
					want, got := spec.EndToEnd, rep.e2e
					if trace {
						want, got = spec.PerLayer, rep.layer
						reps[i] = rep
					}
					if len(got) != len(want) {
						t.Errorf("trace %v: %d metrics reported, BENCHMARK.json names %d", trace, len(got), len(want))
					}
					for _, m := range want {
						if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
							t.Errorf("trace %v: metric %s = %+v, want unit %q", trace, m.Name, g, m.Unit)
						}
					}
				}
			}
			if w.Name != "graph-disk" {
				return
			}
			for _, name := range exact {
				if a, b := reps[0].layer[name], reps[1].layer[name]; a != b {
					t.Errorf("%s differs between identical runs: %v vs %v", name, a.Value, b.Value)
				}
			}
		})
	}
}
