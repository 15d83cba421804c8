package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streach"
	"streach/internal/pagefile"
)

// datasetSeed fixes the generated contact datasets: a run's seed varies
// the queries and the feed, not the archive they run against, so runs
// with different seeds measure the same index.
const datasetSeed = 1

// inprocSpec describes a workload that calls a frozen engine in process.
type inprocSpec struct {
	backend   string
	setups    int // set-ups per run; setup_s is their median
	objects   int
	ticks     int
	poolPages int
	clients   int
	mix       mix
	tails     map[string]float64
	// windows are short enough that a run answers thousands of queries
	// of each kind: with a few hundred, the p50s moved with the seed.
	windows windows
	// queryRate sizes the generated query list in queries per second of
	// run time, above what the workload answers on the machines it was
	// sized on; a faster run cycles through the list.
	queryRate int
	// warmup is how many of the queries run, unmeasured, before timing.
	// warmPool first runs whole-domain set queries until one reads no
	// page, so a pool larger than the index holds all of it.
	warmup   int
	warmPool bool
}

// graph-disk: the paper's setting, a disk-resident ReachGraph about 64
// times larger than its buffer pool, one client so page counts repeat.
func graphDiskSpec(tiny bool) inprocSpec {
	s := inprocSpec{
		backend: "bidir:reachgraph", setups: 3, objects: 800, ticks: 2000, poolPages: 64, clients: 1,
		mix:     mix{kindPoint: 40, kindSet: 15, kindArrival: 20, kindTopK: 10, kindFiltered: 15},
		tails:   map[string]float64{kindPoint: 0.95, kindSet: 0.95, kindArrival: 0.95},
		windows: windows{20, 120}, queryRate: 900, warmup: 32,
	}
	if tiny {
		s.objects, s.ticks, s.poolPages, s.warmup = 120, 600, 16, 8
	}
	return s
}

// grid-warm: the ReachGrid index with a pool larger than the index, warmed
// until the timed phase reads no page; two clients share the pool.
func gridWarmSpec(tiny bool) inprocSpec {
	s := inprocSpec{
		backend: "reachgrid", setups: 9, objects: 800, ticks: 2000, poolPages: 8192, clients: 2,
		mix:     mix{kindPoint: 35, kindSet: 20, kindArrival: 20, kindTopK: 15, kindFiltered: 10},
		tails:   map[string]float64{kindPoint: 0.95, kindSet: 0.95, kindArrival: 0.95},
		windows: windows{20, 120}, queryRate: 750, warmup: 32, warmPool: true,
	}
	if tiny {
		s.objects, s.ticks, s.warmup = 120, 600, 8
	}
	return s
}

func runGraphDisk(cfg config) (*report, error) { return runInproc(cfg, graphDiskSpec(cfg.tiny)) }
func runGridWarm(cfg config) (*report, error)  { return runInproc(cfg, gridWarmSpec(cfg.tiny)) }

// call is the record of one timed query.
type call struct {
	kind    string
	latency time.Duration
	out     outcome
	err     error
	ok      bool
}

// phase is what one timed phase measured.
type phase struct {
	calls   []call
	elapsed time.Duration
	mem     [2]memSnapshot
	pool    [2]streach.PoolStats
}

func runInproc(cfg config, spec inprocSpec) (*report, error) {
	rep := newReport()
	gen := func() *streach.Dataset {
		return streach.GenerateRandomWaypoint(streach.RWPOptions{
			NumObjects: spec.objects, NumTicks: spec.ticks, Seed: datasetSeed,
		})
	}
	type built struct {
		ds  *streach.Dataset
		eng streach.Engine
	}
	b, setupS, indexMB, err := measureSetup(spec.setups, gen, func(ds *streach.Dataset) (built, error) {
		eng, err := streach.Open(spec.backend, ds, streach.Options{PoolPages: spec.poolPages})
		return built{ds, eng}, err
	})
	if err != nil {
		return nil, err
	}
	eng := b.eng
	oracle, err := streach.Open("oracle", b.ds.Contacts(), streach.Options{})
	if err != nil {
		return nil, err
	}
	nq := int(float64(spec.queryRate) * cfg.seconds)
	if cfg.maxQueries > 0 {
		nq = cfg.maxQueries
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	qs := historyQueries(rng, spec.mix, spec.windows, max(nq, spec.warmup), spec.objects, spec.ticks)
	ctx := context.Background()
	// The oracle answers every query before timing, on every core.
	want := make([]outcome, len(qs))
	errs := make([]error, len(qs))
	closedLoop(runtime.GOMAXPROCS(0), time.Time{}, len(qs), func(i int) {
		if want[i], errs[i] = execute(ctx, oracle, qs[i]); errs[i] != nil {
			errs[i] = fmt.Errorf("oracle %+v: %w", qs[i], errs[i])
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if spec.warmPool {
		whole := streach.NewInterval(0, streach.Tick(spec.ticks-1))
		for src, misses := 0, int64(-1); misses != eng.Stats().Pool.Misses; src++ {
			misses = eng.Stats().Pool.Misses
			if _, err := eng.ReachableSet(ctx, streach.ObjectID(src), whole); err != nil {
				return nil, err
			}
		}
	}
	closedLoop(spec.clients, time.Time{}, spec.warmup, func(i int) {
		execute(ctx, eng, qs[i])
	})

	phaseSecs := cfg.seconds
	if cfg.trace {
		phaseSecs /= 2
	}
	run := func(tr *tracer) phase {
		var p phase
		var mu sync.Mutex
		p.mem[0], p.pool[0] = readMem(), eng.Stats().Pool
		start := time.Now()
		deadline := start.Add(time.Duration(phaseSecs * float64(time.Second)))
		if cfg.maxQueries > 0 {
			deadline = time.Time{}
		}
		closedLoop(spec.clients, deadline, cfg.maxQueries, func(i int) {
			q := qs[i%len(qs)]
			t0 := time.Now()
			out, err := execute(ctx, eng, q)
			t1 := time.Now()
			if tr != nil {
				req := int64(i) + 1
				tr.record(span{ID: calleeSpanID(req), Req: req, Name: "engine", Kind: q.Kind, Start: tr.since(t0), End: tr.since(t1)})
			}
			c := call{kind: q.Kind, latency: t1.Sub(t0), out: out, err: err}
			c.ok = err == nil && matches(q.Kind, out, want[i%len(qs)])
			mu.Lock()
			p.calls = append(p.calls, c)
			mu.Unlock()
		})
		p.elapsed = time.Since(start)
		p.mem[1], p.pool[1] = readMem(), eng.Stats().Pool
		return p
	}
	all := run(nil)
	rep.settings["timed_pool_misses"] = all.pool[1].Misses - all.pool[0].Misses
	if cfg.trace {
		tr := newTracer()
		traced := run(tr)
		if err := inprocLayers(rep, cfg, spec, tr, all, traced); err != nil {
			return nil, err
		}
		all.calls = append(all.calls, traced.calls...)
		all.elapsed += traced.elapsed
	}
	for _, c := range all.calls {
		rep.attempted++
		if !c.ok {
			rep.failed++
			if c.err == nil {
				rep.mismatches++
			}
		}
	}

	lat := latencies{}
	for _, c := range all.calls {
		if c.ok {
			lat[c.kind] = append(lat[c.kind], us(c.latency))
		}
	}
	rep.addLatencyMetrics(rep.e2e, lat, spec.tails)
	rep.e2e["setup_s"] = metric{setupS, "s"}
	rep.e2e["index_mb"] = metric{indexMB, "MB"}
	rep.e2e["queries_per_s"] = metric{float64(len(all.calls)) / all.elapsed.Seconds(), "1/s"}
	rep.e2e["heap_mb"] = metric{heapMB(), "MB"}

	st := eng.Stats()
	rep.settings["backend"] = spec.backend
	rep.settings["dataset"] = fmt.Sprintf("RWP%d x %d ticks, seed %d", spec.objects, spec.ticks, datasetSeed)
	rep.settings["load"] = fmt.Sprintf("closed loop, %d clients", spec.clients)
	rep.settings["pool_pages"] = spec.poolPages
	rep.settings["index_pages"] = st.IndexBytes / pagefile.PageSize
	rep.settings["tail_percentile"] = spec.tails
	rep.settings["mix_percent"] = spec.mix
	return rep, nil
}

// closedLoop runs fn(i) for i = 0, 1, … on clients goroutines, each
// starting its next call when the previous returns, until limit calls
// (when limit > 0) or the deadline (when set) passes.
func closedLoop(clients int, deadline time.Time, limit int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// inprocLayers reports the per-layer metrics of an in-process workload
// from its traced phase, and the tracing overhead against the untraced
// phase that preceded it.
func inprocLayers(rep *report, cfg config, spec inprocSpec, tr *tracer, untraced, traced phase) error {
	m := rep.layer
	engLat := latencies{}
	for _, s := range tr.byName("engine") {
		engLat[s.Kind] = append(engLat[s.Kind], us(s.dur()))
	}
	for _, k := range kinds {
		rep.put(m, "engine."+k+"_p50_us", median(engLat[k]), "us", len(engLat[k]))
	}
	var (
		n, points, positive, semantic, native float64
		expanded                              = map[string]float64{}
		count                                 = map[string]float64{}
		io                                    streach.IOStats
	)
	for _, c := range traced.calls {
		if c.err != nil {
			continue
		}
		n++
		count[c.kind]++
		expanded[c.kind] += float64(c.out.expanded)
		io.RandomReads += c.out.io.RandomReads
		io.SequentialReads += c.out.io.SequentialReads
		io.BufferHits += c.out.io.BufferHits
		io.Normalized += c.out.io.Normalized
		switch c.kind {
		case kindPoint:
			points++
			if c.out.reachable {
				positive++
			}
		case kindArrival, kindTopK, kindFiltered:
			semantic++
			if c.out.native {
				native++
			}
		}
	}
	m["engine.recent_frac"] = metric{0, "ratio"}
	m["engine.positive_frac"] = metric{ratio(positive, points), "ratio"}
	m["engine.native_frac"] = metric{ratio(native, semantic), "ratio"}
	for _, k := range tailKinds {
		m["core.expanded_per_"+k] = metric{ratio(expanded[k], count[k]), "count/query"}
	}
	pool0, pool1 := traced.pool[0], traced.pool[1]
	m["pagefile.pages_read_per_query"] = metric{ratio(float64(io.RandomReads+io.SequentialReads), n), "pages/query"}
	m["pagefile.random_reads_per_query"] = metric{ratio(float64(io.RandomReads), n), "pages/query"}
	m["pagefile.normalized_io_per_query"] = metric{ratio(io.Normalized, n), "pages/query"}
	m["pagefile.evictions_per_query"] = metric{ratio(float64(pool1.Evictions-pool0.Evictions), n), "pages/query"}
	m["pagefile.hits_per_query"] = metric{ratio(float64(io.BufferHits), n), "pages/query"}
	hits, misses := float64(pool1.Hits-pool0.Hits), float64(pool1.Misses-pool0.Misses)
	m["pagefile.hit_rate"] = metric{ratio(hits, hits+misses), "ratio"}
	rep.addRuntimeMetrics(traced.mem[0], traced.mem[1], int64(len(traced.calls)))
	for name, unit := range absentInProcess {
		m[name] = metric{0, unit}
	}
	m["loadgen.late_p99_us"] = metric{0, "us"}
	m["loadgen.sent"] = metric{float64(len(traced.calls)), "count"}
	failed := 0
	for _, c := range traced.calls {
		if !c.ok {
			failed++
		}
	}
	m["loadgen.failed_frac"] = metric{ratio(float64(failed), float64(len(traced.calls))), "ratio"}
	m["loadgen.checked_frac"] = metric{1, "ratio"}
	m["trace.overhead_point_p50_us"] = metric{pointP50(traced.calls) - pointP50(untraced.calls), "us"}
	path, err := tr.write(cfg.traceDir, cfg.workload, cfg.seed)
	rep.settings["trace_file"] = path
	return err
}

// pointP50 is the median latency of the point calls among calls.
func pointP50(calls []call) float64 {
	var v []float64
	for _, c := range calls {
		if c.kind == kindPoint {
			v = append(v, us(c.latency))
		}
	}
	return median(v)
}

// absentInProcess are the per-layer metrics of the serving and live
// layers, with their units; the in-process workloads bypass those layers
// and report 0.
var absentInProcess = map[string]string{
	"serve.handler_p50_us":        "us",
	"serve.self_p50_us":           "us",
	"serve.transport_p50_us":      "us",
	"serve.cache_hit_rate":        "ratio",
	"serve.shed":                  "count",
	"serve.ingest_handler_p50_us": "us",
	"live.ingest_p50_us":          "us",
	"live.ingest_tail_us":         "us",
	"live.compactions":            "count",
	"live.late_events":            "count",
	"live.delta_events":           "count",
	"live.dirty_segments":         "count",
	"live.sealed":                 "count",
}
