package main

import (
	"net/http"

	"streach"
)

// liveLayers reports the per-layer metrics of serve-live from its traced
// phase: the handler spans the server-side wrapper recorded, joined by
// request ID with the client spans and the engine time each answer
// reported, plus the live engine's counters across the phase.
func liveLayers(rep *report, spec liveSpec, tr *tracer, calls []liveCall, stats [2]streach.EngineStats, checked, answered int) {
	m := rep.layer
	handler := map[int64]span{}
	for _, s := range tr.byName("serve.handler") {
		handler[s.Req] = s
	}
	client := map[int64]span{}
	for _, s := range tr.byName("client") {
		client[s.Req] = s
	}
	var (
		hPoint, self, transport, ingestH, ingestLat, late []float64
		engine                                            = latencies{}
		queries, cached, shed, failed, points, positive   float64
		semantic, native, recent                          float64
		expanded, fresh                                   = map[string]float64{}, map[string]float64{}
	)
	for _, c := range calls {
		if c.status == http.StatusTooManyRequests || c.status == http.StatusServiceUnavailable {
			shed++
		}
		ok := c.err == nil && c.status == http.StatusOK && !c.mismatch
		if !ok {
			failed++
		}
		h, hok := handler[c.req]
		if c.ingest {
			late = append(late, us(c.late))
			if hok {
				ingestH = append(ingestH, us(h.dur()))
			}
			if ok {
				ingestLat = append(ingestLat, us(c.latency))
			}
			continue
		}
		if !ok {
			continue
		}
		queries++
		engine[c.q.Kind] = append(engine[c.q.Kind], c.out.engineUS)
		if c.q.Hi >= (c.frontier+1)/streach.Tick(spec.segmentTicks)*streach.Tick(spec.segmentTicks) {
			recent++
		}
		if c.out.cached {
			cached++
		} else {
			fresh[c.q.Kind]++
			expanded[c.q.Kind] += float64(c.out.expanded)
		}
		switch c.q.Kind {
		case kindPoint:
			points++
			if c.out.reachable {
				positive++
			}
			if cl, cok := client[c.req]; cok && hok {
				hPoint = append(hPoint, us(h.dur()))
				self = append(self, us(h.dur())-c.out.engineUS)
				transport = append(transport, us(cl.dur()-h.dur()))
			}
		case kindArrival, kindTopK, kindFiltered:
			semantic++
			if c.out.native {
				native++
			}
		}
	}
	rep.put(m, "serve.handler_p50_us", median(hPoint), "us", len(hPoint))
	rep.put(m, "serve.self_p50_us", median(self), "us", len(self))
	rep.put(m, "serve.transport_p50_us", median(transport), "us", len(transport))
	m["serve.cache_hit_rate"] = metric{ratio(cached, queries), "ratio"}
	m["serve.shed"] = metric{shed, "count"}
	rep.put(m, "serve.ingest_handler_p50_us", median(ingestH), "us", len(ingestH))
	rep.put(m, "live.ingest_p50_us", median(ingestLat), "us", len(ingestLat))
	rep.put(m, "live.ingest_tail_us", percentile(ingestLat, spec.ingestTail), "us", len(ingestLat))
	m["live.compactions"] = metric{float64(stats[1].Compactions - stats[0].Compactions), "count"}
	m["live.late_events"] = metric{float64(stats[1].LateEvents - stats[0].LateEvents), "count"}
	m["live.delta_events"] = metric{float64(stats[1].DeltaEvents), "count"}
	m["live.dirty_segments"] = metric{float64(stats[1].DirtySegments), "count"}
	m["live.sealed"] = metric{float64(stats[1].SealedSegments - stats[0].SealedSegments), "count"}
	for _, k := range kinds {
		rep.put(m, "engine."+k+"_p50_us", median(engine[k]), "us", len(engine[k]))
	}
	m["engine.recent_frac"] = metric{ratio(recent, queries), "ratio"}
	m["engine.positive_frac"] = metric{ratio(positive, points), "ratio"}
	m["engine.native_frac"] = metric{ratio(native, semantic), "ratio"}
	for _, k := range tailKinds {
		m["core.expanded_per_"+k] = metric{ratio(expanded[k], fresh[k]), "count/query"}
	}
	// The memory-resident base reads no pages and has no buffer pool.
	for _, name := range []string{
		"pagefile.pages_read_per_query", "pagefile.random_reads_per_query", "pagefile.normalized_io_per_query",
		"pagefile.evictions_per_query", "pagefile.hits_per_query",
	} {
		m[name] = metric{0, "pages/query"}
	}
	m["pagefile.hit_rate"] = metric{0, "ratio"}
	rep.put(m, "loadgen.late_p99_us", percentile(late, 0.99), "us", len(late))
	m["loadgen.sent"] = metric{float64(len(calls)), "count"}
	m["loadgen.failed_frac"] = metric{ratio(failed, float64(len(calls))), "ratio"}
	m["loadgen.checked_frac"] = metric{ratio(float64(checked), float64(answered)), "ratio"}
}

// livePointP50 is the median latency of the answered point queries among
// calls.
func livePointP50(calls []liveCall) float64 {
	var v []float64
	for _, c := range calls {
		if !c.ingest && c.q.Kind == kindPoint && c.err == nil && c.status == http.StatusOK {
			v = append(v, us(c.latency))
		}
	}
	return median(v)
}
