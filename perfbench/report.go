package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run hands back to main.
type report struct {
	// attempted counts requests or calls issued in the timed phases;
	// failed counts the non-200 responses, errors and oracle mismatches
	// among them, and mismatches the oracle mismatches alone.
	attempted, failed, mismatches int64
	// e2e holds the end-to-end metrics, layer the per-layer ones.
	e2e, layer map[string]metric
	// samples gives the sample count behind each latency metric.
	samples map[string]int
	// settings stamps the run with everything a comparison must match.
	settings map[string]any
}

func newReport() *report {
	return &report{
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		samples:  map[string]int{},
		settings: map[string]any{},
	}
}

// Query kinds. Every workload runs all five.
const (
	kindPoint    = "point"
	kindSet      = "set"
	kindArrival  = "arrival"
	kindTopK     = "topk"
	kindFiltered = "filtered"
)

var kinds = []string{kindPoint, kindSet, kindArrival, kindTopK, kindFiltered}

// tailKinds are the kinds with a tail metric. Each workload's spec fixes
// the percentile each reports: the highest of p99, p95 and p90 that
// leaves at least ten samples beyond it in a run of the default length.
var tailKinds = []string{kindPoint, kindSet, kindArrival}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of vals, or
// 0 for no samples. vals is sorted in place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	i := int(math.Ceil(p*float64(len(vals)))) - 1
	return vals[max(i, 0)]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies collects per-kind latency samples in microseconds.
type latencies map[string][]float64

// addLatencyMetrics puts <kind>_p50_us for every kind and <kind>_tail_us
// for the tail kinds into m, with their sample counts.
func (r *report) addLatencyMetrics(m map[string]metric, lat latencies, tails map[string]float64) {
	for _, k := range kinds {
		r.put(m, k+"_p50_us", median(lat[k]), "us", len(lat[k]))
	}
	for _, k := range tailKinds {
		r.put(m, k+"_tail_us", percentile(lat[k], tails[k]), "us", len(lat[k]))
	}
}

func (r *report) put(m map[string]metric, name string, v float64, unit string, samples int) {
	m[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// memSnapshot is the runtime counters a timed phase differences.
type memSnapshot struct {
	numGC                  uint32
	bytes, allocs, pauseNs uint64
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{numGC: ms.NumGC, bytes: ms.TotalAlloc, allocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// addRuntimeMetrics reports the runtime.* layer between two snapshots of
// a phase that completed queries queries.
func (r *report) addRuntimeMetrics(before, after memSnapshot, queries int64) {
	q := float64(queries)
	r.layer["runtime.allocs_per_query"] = metric{ratio(float64(after.allocs-before.allocs), q), "allocs/query"}
	r.layer["runtime.alloc_bytes_per_query"] = metric{ratio(float64(after.bytes-before.bytes), q), "B/query"}
	r.layer["runtime.gc_cycles"] = metric{float64(after.numGC - before.numGC), "count"}
	r.layer["runtime.gc_pause_ms"] = metric{float64(after.pauseNs-before.pauseNs) / 1e6, "ms"}
}

// heapMB forces a collection and returns the live heap in MiB. The
// second collection frees what sync.Pools kept through the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measureSetup runs build runs times, timing each, and returns the last
// result with the median set-up seconds and the median heap the result
// retains (MiB). prepare makes each build's untimed input.
func measureSetup[I, T any](runs int, prepare func() I, build func(in I) (T, error)) (T, float64, float64, error) {
	var (
		out            T
		secs, retained []float64
	)
	for range runs {
		var zero T
		out = zero // release the previous build before measuring
		in := prepare()
		h0 := heapMB()
		t0 := time.Now()
		v, err := build(in)
		if err != nil {
			return out, 0, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		retained = append(retained, heapMB()-h0)
		out = v
	}
	return out, median(secs), median(retained), nil
}
