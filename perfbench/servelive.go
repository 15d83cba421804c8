package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streach"
	"streach/internal/serve"
)

// liveSpec describes the serve-live workload: an in-process HTTP server
// over a LiveEngine, queried in a closed loop while a feed is ingested at
// a fixed rate.
type liveSpec struct {
	backend      string
	setups       int // set-ups per run; setup_s is their median
	objects      int
	preload      int // feed instants ingested during set-up
	segmentTicks int
	// compactEvents is Options.CompactEvents, low enough that compaction
	// runs several cycles in a run.
	compactEvents int
	// conns clients each send their next query when the previous answer
	// arrives; ingestRate is the fixed ingest request rate on one more
	// connection, with each request timed from when it was due.
	conns      int
	ingestRate float64
	// Every lateEvery-th ingest request carries lateBatch contact events
	// at ticks up to lateSpan behind the frontier instead of a feed
	// instant; the first lateRetracts of them retract the oldest late adds
	// not yet retracted. Only the contact pairs are random: every seed
	// writes the same number of events to the same ticks, so sealing and
	// compaction run on the same schedule.
	lateEvery    int
	lateBatch    int
	lateSpan     int
	lateRetracts int
	// hotFrac of the queries cycle through hotSet fixed history queries;
	// of the rest, half end at the live frontier, half fall in history.
	hotFrac float64
	hotSet  int
	mix     mix
	windows windows
	tails   map[string]float64
	// ingestTail is the percentile of live.ingest_tail_us.
	ingestTail float64
}

// maxQueryRate sizes the generated query list in queries per second of
// run time, above what serve-live answers on the machines it was sized
// on; a faster run cycles through the list.
const maxQueryRate = 2000

func liveSpecFor(tiny bool) liveSpec {
	s := liveSpec{
		backend: "reachgraph-mem", setups: 5, objects: 400, preload: 1000, segmentTicks: 128, compactEvents: 32,
		conns: 1, ingestRate: 10,
		lateEvery: 7, lateBatch: 8, lateSpan: 300, lateRetracts: 2,
		hotFrac: 0.2, hotSet: 64,
		mix:        mix{kindPoint: 72, kindSet: 10, kindArrival: 10, kindTopK: 4, kindFiltered: 4},
		windows:    windows{50, 350},
		tails:      map[string]float64{kindPoint: 0.99, kindSet: 0.95, kindArrival: 0.95},
		ingestTail: 0.90,
	}
	if tiny {
		s.objects, s.preload, s.segmentTicks, s.compactEvents = 80, 400, 64, 8
		s.ingestRate, s.hotSet = 20, 8
	}
	return s
}

// liveQuery is a generated query whose window is resolved against the
// frontier when it is sent: hot queries carry a fixed window, frontier
// queries end at the frontier, history queries start at u of the way
// through the ingested ticks.
type liveQuery struct {
	q        query
	hot      bool
	frontier bool
	width    int
	u        float64
}

func (lq liveQuery) resolve(frontier streach.Tick) query {
	q := lq.q
	if lq.hot {
		return q
	}
	w := streach.Tick(lq.width)
	if lq.frontier {
		q.Lo, q.Hi = max(frontier-w, 0), frontier
	} else {
		q.Lo = streach.Tick(lq.u * float64(frontier-w+1))
		q.Hi = q.Lo + w
	}
	return q
}

// ingestOp is one pre-encoded ingest request: a feed instant at tick
// (events nil) or a batch of contact events.
type ingestOp struct {
	body   []byte
	tick   streach.Tick
	events []streach.ContactEvent
}

// touches reports whether the op can change q's answer: whether it
// changes contact content inside q's window or, for filtered queries,
// anywhere, since extending a contact past the window changes the full
// validity the duration filter reads.
func (op ingestOp) touches(q query) bool {
	if q.Kind == kindFiltered {
		return true
	}
	if op.events == nil {
		return op.tick >= q.Lo && op.tick <= q.Hi
	}
	for _, e := range op.events {
		if e.Tick >= q.Lo && e.Tick <= q.Hi {
			return true
		}
	}
	return false
}

// feed generates the ingest stream: instants continue the dataset past the
// preload, event batches add late contacts behind the frontier and retract
// some of the earlier ones.
func (s liveSpec) feed(rng *rand.Rand, positions [][]streach.Point, n int) ([]ingestOp, error) {
	type key struct {
		t    streach.Tick
		a, b streach.ObjectID
	}
	frontier := streach.Tick(s.preload - 1)
	added := map[key]bool{}
	var live []key // added and not yet retracted, oldest first
	ops := make([]ingestOp, 0, n)
	late := 0
	for j := range n {
		if j%s.lateEvery != s.lateEvery-1 {
			frontier++
			if int(frontier) >= len(positions) {
				return nil, errors.New("feed outruns the generated dataset")
			}
			ops = append(ops, ingestOp{body: instantBody(positions[frontier]), tick: frontier})
			continue
		}
		var evs []streach.ContactEvent
		var batch []key
		for e := range s.lateBatch {
			if len(live) > 0 && e < s.lateRetracts {
				k := live[0]
				live = live[1:]
				evs = append(evs, streach.ContactEvent{Tick: k.t, A: k.a, B: k.b, Retract: true})
				continue
			}
			// Offsets step through [1, lateSpan] by a stride coprime to it.
			t := frontier - streach.Tick(1+late*97%s.lateSpan)
			late++
			var k key
			for {
				a, b := randomPair(rng, s.objects)
				k = key{t, min(a, b), max(a, b)}
				if !added[k] {
					break
				}
			}
			added[k] = true
			batch = append(batch, k)
			evs = append(evs, streach.ContactEvent{Tick: k.t, A: k.a, B: k.b})
		}
		live = append(live, batch...)
		ops = append(ops, ingestOp{body: eventsBody(evs), events: evs})
	}
	return ops, nil
}

// randomPair draws two distinct objects.
func randomPair(rng *rand.Rand, n int) (streach.ObjectID, streach.ObjectID) {
	src := rng.Intn(n)
	dst := rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	return streach.ObjectID(src), streach.ObjectID(dst)
}

func instantBody(ps []streach.Point) []byte {
	b := []byte(`{"instants":[[`)
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
		b = append(b, ']')
	}
	return append(b, "]]}"...)
}

func eventsBody(evs []streach.ContactEvent) []byte {
	b := []byte(`{"events":[`)
	for i, e := range evs {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"tick":%d,"a":%d,"b":%d,"retract":%t}`, e.Tick, e.A, e.B, e.Retract)
	}
	return append(b, "]}"...)
}

// liveCall is the record of one request of the timed phases.
type liveCall struct {
	q      query
	ingest bool
	// latency runs from when the request was due to the last byte of the
	// answer, late from due to the send. A query is due when it is sent;
	// an ingest request when the fixed-rate schedule says.
	latency, late time.Duration
	status        int
	out           outcome
	err           error
	// state is the number of ingest requests completed before the send,
	// at which the frontier was the last ingested tick; started is the
	// number begun before the answer arrived.
	state, started int
	frontier       streach.Tick
	req            int64
	// checked marks an answer compared with the oracle, mismatch one that
	// disagreed.
	checked, mismatch bool
}

// liveState is what the ingest stream has completed: the number of ops
// and the last ingested tick, updated together.
type liveState struct {
	ops      int
	frontier streach.Tick
}

type liveRun struct {
	url       string
	queries   []liveQuery
	ops       []ingestOp
	state     atomic.Pointer[liveState]
	started   atomic.Int64
	tr        atomic.Pointer[tracer]
	clients   []*http.Client
	ingestCli *http.Client
	mu        sync.Mutex
	calls     []liveCall
}

func runServeLive(cfg config) (*report, error) {
	spec := liveSpecFor(cfg.tiny)
	// The closed loop cycles through the generated queries; there are
	// more than a run answers at the rate the workload was sized at.
	nq := int(maxQueryRate * cfg.seconds)
	if cfg.maxQueries > 0 {
		nq = cfg.maxQueries
	}
	nops := int(spec.ingestRate * cfg.seconds)
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: spec.objects, NumTicks: spec.preload + nops + 1, Seed: datasetSeed,
	})
	positions := make([][]streach.Point, ds.NumTicks())
	for t := range positions {
		positions[t] = make([]streach.Point, spec.objects)
		for o := range positions[t] {
			positions[t][o] = ds.Position(streach.ObjectID(o), streach.Tick(t))
		}
	}
	open := func(backend string) (*streach.LiveEngine, error) {
		le, err := streach.NewLiveEngine(backend, spec.objects, ds.Env(), ds.ContactDist(), streach.Options{
			SegmentTicks: spec.segmentTicks, CompactEvents: spec.compactEvents,
		})
		if err != nil {
			return nil, err
		}
		for t := range spec.preload {
			if err := le.AddInstant(positions[t]); err != nil {
				return nil, err
			}
		}
		return le, nil
	}
	type built struct {
		le  *streach.LiveEngine
		srv *serve.Server
	}
	b, setupS, indexMB, err := measureSetup(spec.setups, func() struct{} { return struct{}{} }, func(struct{}) (built, error) {
		le, err := open(spec.backend)
		if err != nil {
			return built{}, err
		}
		return built{le, serve.New(le, serve.Config{Dataset: ds.Name()})}, nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	ops, err := spec.feed(rng, positions, nops)
	if err != nil {
		return nil, err
	}
	hot := historyQueries(rng, spec.mix, spec.windows, spec.hotSet, spec.objects, spec.preload)
	run := &liveRun{ops: ops, queries: make([]liveQuery, nq)}
	st := newStream(rng, spec.mix, spec.objects)
	hotOff, hots := rng.Float64(), 0
	for i := range run.queries {
		lq := &run.queries[i]
		if frac(hotOff+float64(i)*golden) < spec.hotFrac {
			*lq = liveQuery{q: hot[hots%len(hot)], hot: true}
			hots++
			continue
		}
		q, rank, wu, pu := st.next()
		*lq = liveQuery{q: q, frontier: rank%2 == 0, width: spec.windows.width(wu), u: pu}
	}
	run.state.Store(&liveState{frontier: streach.Tick(spec.preload - 1)})

	var handler http.Handler = b.srv
	if cfg.trace {
		handler = run.traceHandler(b.srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	run.url = "http://" + ln.Addr().String()
	for range spec.conns {
		run.clients = append(run.clients, newClient())
	}
	run.ingestCli = newClient()

	phaseSecs := cfg.seconds
	phases := 1
	if cfg.trace {
		phaseSecs /= 2
		phases = 2
	}
	type phaseRec struct {
		calls   []liveCall
		elapsed time.Duration
		mem     [2]memSnapshot
		stats   [2]streach.EngineStats
	}
	var recs []phaseRec
	for p := range phases {
		var tr *tracer
		if p == 1 {
			tr = newTracer()
			run.tr.Store(tr)
		}
		var rec phaseRec
		rec.mem[0], rec.stats[0] = readMem(), b.le.Stats()
		qlo, qhi := p*nq/phases, (p+1)*nq/phases
		olo, ohi := p*nops/phases, (p+1)*nops/phases
		start := time.Now()
		run.stream(start, phaseSecs, qlo, qhi, olo, ohi, cfg.maxQueries > 0)
		rec.elapsed = time.Since(start)
		rec.mem[1], rec.stats[1] = readMem(), b.le.Stats()
		run.mu.Lock()
		rec.calls, run.calls = run.calls, nil
		run.mu.Unlock()
		recs = append(recs, rec)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := hs.Shutdown(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if shutdownErr != nil {
		return nil, shutdownErr
	}

	var all []liveCall
	for _, r := range recs {
		all = append(all, r.calls...)
	}
	rep := newReport()
	checked, err := checkLive(open, positions, ops, all)
	if err != nil {
		return nil, err
	}
	lat := latencies{}
	answered := 0 // queries with a 200 answer the oracle did not refute
	for _, c := range all {
		rep.attempted++
		switch {
		case c.err != nil || c.status != http.StatusOK:
			rep.failed++
		case c.mismatch:
			rep.failed++
			rep.mismatches++
		case !c.ingest:
			answered++
			lat[c.q.Kind] = append(lat[c.q.Kind], us(c.latency))
		}
	}
	rep.addLatencyMetrics(rep.e2e, lat, spec.tails)
	rep.e2e["setup_s"] = metric{setupS, "s"}
	rep.e2e["index_mb"] = metric{indexMB, "MB"}
	var elapsed time.Duration
	for _, r := range recs {
		elapsed += r.elapsed
	}
	rep.e2e["queries_per_s"] = metric{float64(answered) / elapsed.Seconds(), "1/s"}
	rep.e2e["heap_mb"] = metric{heapMB(), "MB"}
	runtime.KeepAlive(b)
	if cfg.trace {
		tr := run.tr.Load()
		untraced, traced := recs[0], recs[1]
		liveLayers(rep, spec, tr, traced.calls, traced.stats, checked, answered+int(rep.mismatches))
		rep.addRuntimeMetrics(traced.mem[0], traced.mem[1], int64(len(traced.calls)))
		rep.layer["trace.overhead_point_p50_us"] = metric{livePointP50(traced.calls) - livePointP50(untraced.calls), "us"}
		engineNS := map[int64]int64{}
		for _, c := range traced.calls {
			engineNS[c.req] = int64(c.out.engineUS * 1e3)
		}
		for i, s := range tr.spans {
			if s.Name == "serve.handler" {
				tr.spans[i].EngineNS = engineNS[s.Req]
			}
		}
		path, err := tr.write(cfg.traceDir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		rep.settings["trace_file"] = path
	}
	rep.settings["backend"] = "live:" + spec.backend
	rep.settings["dataset"] = fmt.Sprintf("RWP%d, %d ticks preloaded, seed %d", spec.objects, spec.preload, datasetSeed)
	rep.settings["load"] = fmt.Sprintf("closed loop, %d client(s); %g ingest requests/s, open loop, on one more connection", spec.conns, spec.ingestRate)
	rep.settings["ingest_rate"] = spec.ingestRate
	rep.settings["pool_pages"] = 0
	rep.settings["index_pages"] = 0
	rep.settings["compact_events"] = spec.compactEvents
	rep.settings["tail_percentile"] = spec.tails
	rep.settings["mix_percent"] = spec.mix
	rep.settings["oracle_checked"] = checked
	rep.settings["answered"] = answered
	return rep, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// traceHandler wraps the server's ServeHTTP in a handler span whenever a
// tracer is installed; the request ID travels in X-Bench-Req.
func (r *liveRun) traceHandler(srv *serve.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := r.tr.Load()
		if tr == nil {
			srv.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		srv.ServeHTTP(w, req)
		end := time.Now()
		id, _ := strconv.ParseInt(req.Header.Get("X-Bench-Req"), 10, 64)
		tr.record(span{ID: calleeSpanID(id), Parent: clientSpanID(id), Req: id, Name: "serve.handler",
			Start: tr.since(start), End: tr.since(end)})
	})
}

// stream runs one phase of secs from start: the clients answer queries
// qlo, qlo+1, … (cycling below qhi) in a closed loop, or exactly queries
// qlo..qhi when limit is set, while ingest ops olo..ohi are sent evenly
// spread over the phase.
func (r *liveRun) stream(start time.Time, secs float64, qlo, qhi, olo, ohi int, limit bool) {
	var wg sync.WaitGroup
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	var next atomic.Int64
	for _, cli := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if limit && n >= qhi-qlo || !limit && !time.Now().Before(deadline) {
					return
				}
				r.sendQuery(cli, qlo+n%(qhi-qlo), int64(n))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		operiod := time.Duration(secs * float64(time.Second) / float64(max(ohi-olo, 1)))
		for j := olo; j < ohi; j++ {
			due := start.Add(time.Duration(j-olo) * operiod)
			time.Sleep(time.Until(due))
			r.sendIngest(j, due)
		}
	}()
	wg.Wait()
}

func (r *liveRun) sendIngest(j int, due time.Time) {
	op := r.ops[j]
	r.started.Add(1)
	c := liveCall{ingest: true, req: int64(-j - 1)}
	tr := r.tr.Load()
	sent := time.Now()
	c.late = sent.Sub(due)
	c.status, c.err = r.post(r.ingestCli, "/v1/ingest", op.body, c.req, tr != nil, func(body io.Reader) error {
		_, err := io.Copy(io.Discard, body)
		return err
	})
	end := time.Now()
	c.latency = end.Sub(due)
	if c.err == nil && c.status == http.StatusOK {
		st := *r.state.Load()
		st.ops = j + 1
		if op.events == nil {
			st.frontier = op.tick
		}
		r.state.Store(&st)
	}
	if tr != nil {
		tr.record(span{ID: clientSpanID(c.req), Req: c.req, Name: "client", Kind: "ingest",
			Start: tr.since(sent), End: tr.since(end)})
	}
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

func (r *liveRun) sendQuery(cli *http.Client, i int, n int64) {
	st := r.state.Load()
	q := r.queries[i].resolve(st.frontier)
	c := liveCall{q: q, state: st.ops, frontier: st.frontier, req: n + 1}
	tr := r.tr.Load()
	sent := time.Now()
	path, body := requestOf(q)
	c.status, c.err = r.post(cli, path, body, c.req, tr != nil, func(b io.Reader) error {
		var err error
		c.out, err = decodeAnswer(q.Kind, b)
		return err
	})
	end := time.Now()
	c.started = int(r.started.Load())
	c.latency = end.Sub(sent)
	if tr != nil {
		tr.record(span{ID: clientSpanID(c.req), Req: c.req, Name: "client", Kind: q.Kind,
			Start: tr.since(sent), End: tr.since(end)})
	}
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

// post sends one JSON request and hands a 200 response body to read.
func (r *liveRun) post(cli *http.Client, path string, body []byte, req int64, traced bool, read func(io.Reader) error) (int, error) {
	hr, err := http.NewRequest(http.MethodPost, r.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if traced {
		hr.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	}
	resp, err := cli.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	if err := read(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	// Drain what the decoder left so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// requestOf encodes q as a serving-layer request.
func requestOf(q query) (string, []byte) {
	switch q.Kind {
	case kindSet:
		return "/v1/reachable-set", fmt.Appendf(nil, `{"src":%d,"from":%d,"to":%d}`, q.Src, q.Lo, q.Hi)
	case kindArrival:
		return "/v1/earliest-arrival", fmt.Appendf(nil, `{"src":%d,"dst":%d,"from":%d,"to":%d}`, q.Src, q.Dst, q.Lo, q.Hi)
	case kindTopK:
		return "/v1/topk", fmt.Appendf(nil, `{"src":%d,"from":%d,"to":%d,"k":%d,"decay":%g}`, q.Src, q.Lo, q.Hi, topK, topKDecay)
	case kindFiltered:
		return "/v1/reachable", fmt.Appendf(nil,
			`{"src":%d,"dst":%d,"from":%d,"to":%d,"min_duration":%d,"max_hops":%d,"prob":%g,"prob_threshold":%g}`,
			q.Src, q.Dst, q.Lo, q.Hi, filteredSem.MinDuration, filteredSem.MaxHops, filteredSem.Prob, filteredSem.ProbThreshold)
	}
	return "/v1/reachable", fmt.Appendf(nil, `{"src":%d,"dst":%d,"from":%d,"to":%d}`, q.Src, q.Dst, q.Lo, q.Hi)
}

// answerJSON is the union of the query endpoints' response fields.
type answerJSON struct {
	Reachable bool    `json:"reachable"`
	Arrival   int     `json:"arrival"`
	Hops      int     `json:"hops"`
	Prob      float64 `json:"prob"`
	Native    bool    `json:"native"`
	Expanded  int     `json:"expanded"`
	LatencyUS float64 `json:"latency_us"`
	Cached    bool    `json:"cached"`
	IO        struct {
		RandomReads     int64   `json:"random_reads"`
		SequentialReads int64   `json:"sequential_reads"`
		BufferHits      int64   `json:"buffer_hits"`
		Normalized      float64 `json:"normalized"`
	} `json:"io"`
	Items []struct {
		Object  int     `json:"object"`
		Hops    int     `json:"hops"`
		Arrival int     `json:"arrival"`
		Weight  float64 `json:"weight"`
	} `json:"items"`
	// Reachable-set stream lines.
	Objects []int `json:"objects"`
	Done    bool  `json:"done"`
}

func (a answerJSON) outcome() outcome {
	o := outcome{
		reachable: a.Reachable, arrival: streach.Tick(a.Arrival), hops: a.Hops, prob: a.Prob,
		native: a.Native, expanded: a.Expanded, cached: a.Cached,
		io: streach.IOStats{RandomReads: a.IO.RandomReads, SequentialReads: a.IO.SequentialReads,
			BufferHits: a.IO.BufferHits, Normalized: a.IO.Normalized},
	}
	if !a.Cached {
		o.engineUS = a.LatencyUS
	}
	if a.Items != nil {
		o.items = make([]streach.Ranked, len(a.Items))
		for i, it := range a.Items {
			o.items[i] = streach.Ranked{Object: streach.ObjectID(it.Object), Hops: it.Hops,
				Arrival: streach.Tick(it.Arrival), Weight: it.Weight}
		}
	}
	return o
}

// decodeAnswer parses a query response: one JSON object, or for sets the
// NDJSON stream of a header, object chunks and a trailer.
func decodeAnswer(kind string, body io.Reader) (outcome, error) {
	if kind != kindSet {
		var a answerJSON
		err := json.NewDecoder(body).Decode(&a)
		return a.outcome(), err
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var (
		out     outcome
		cached  bool
		objects = []streach.ObjectID{}
	)
	for first := true; sc.Scan(); first = false {
		var a answerJSON
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			return out, err
		}
		if first {
			cached = a.Cached
		}
		for _, o := range a.Objects {
			objects = append(objects, streach.ObjectID(o))
		}
		if a.Done {
			a.Cached = cached
			out = a.outcome()
			out.objects = objects
			out.native = true
			return out, nil
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, errors.New("reachable-set stream ended without a trailer")
}
