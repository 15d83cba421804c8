// LiveEngine: a query engine over a live position feed, queryable while
// ingesting. This is the streaming completion of the segmented
// architecture — where "segmented:<name>" slices a frozen dataset,
// LiveEngine grows the slices as the feed arrives:
//
//	tail    — appends land in one mutable in-memory segment (an
//	          incremental contact builder over the current time slab only);
//	sealed  — when the tail's slab closes it is flushed through the base
//	          backend's builder into an immutable index segment;
//	query   — the cross-segment planner walks sealed segments plus a
//	          snapshot of the tail, so answers always cover every ingested
//	          instant with no rebuild of historical slabs, ever.
//
// Real feeds are late, duplicated and occasionally wrong, so ingestion is
// event-based underneath: Ingest accepts ContactEvents at any tick —
// frontier appends, late adds into already-sealed slabs, retractions
// (privacy deletes / bad-data corrections). Out-of-order events land in
// per-slab delta logs (segment.Log) whose overlay networks the planner
// consults instead of the stale sealed index, so answers are exact
// immediately; Compact (or the Options.CompactEvents threshold) re-seals
// dirty slabs through the same build machinery. AddInstant remains as a
// thin position-join wrapper over the event path.
//
// Appends cost O(one instant) amortized (plus one slab-sized index build
// each SegmentTicks instants); queries are lock-free after taking a
// consistent view. One goroutine may append while any number query.

package streach

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"streach/internal/contact"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/segment"
	"streach/internal/shard"
	"streach/internal/stjoin"
)

// LiveEngine is an Engine over a live position feed. It satisfies Engine
// (and Segmented) like every registry backend, but its time domain grows
// with each AddInstant; queries are evaluated against every instant
// ingested before the query took its view.
type LiveEngine struct {
	name       string
	base       string
	numObjects int
	joiner     *stjoin.Joiner
	log        *segment.Log[frontierCore]

	// pool is the buffer pool the sealed disk-resident segments share;
	// nil for memory-resident bases.
	pool *BufferPool

	// horizon bounds how far past the frontier an add may land (-1 means
	// unbounded); compactEvents is the per-slab delta depth that triggers
	// an automatic re-seal (0 means manual Compact only).
	horizon       int
	compactEvents int

	// bidir routes point queries through the bidirectional planner
	// (engine opened as "bidir:<base>"); parallelism is the worker budget
	// for large frontier sweeps (Options.QueryParallelism).
	bidir       bool
	parallelism int

	// evScratch is AddInstant's reusable event buffer (single appender).
	evScratch []contact.Event

	// Sharding state ("shard:<K>:" name prefix, hash partitioner only —
	// spatial needs trajectories the live feed does not carry). With K > 1
	// lanes[s] is shard s's own segment log: events route to the lane of
	// each endpoint's owner (cross-shard contacts to both), so sealing and
	// compaction stay per-shard, and queries run the scatter-gather
	// relaxation over per-lane views. log aliases lanes[0]; lanes is nil
	// for unsharded engines (shards is still set when "shard:1:" was asked
	// for, so Stats reports the declared count). laneEvs/laneSecEvs are the
	// appender's routing buffers: primary-lane batches (owner of endpoint
	// A) carry the report counts, secondary batches only the duplicated
	// cross-shard side.
	shards     int
	assign     *shard.Assignment
	lanes      []*segment.Log[frontierCore]
	lanePools  []*BufferPool
	laneEvs    [][]contact.Event
	laneSecEvs [][]contact.Event

	// crossFrontier counts boundary objects queries handed across the
	// shard cut; crossContacts/totalContacts/laneContacts count the routed
	// contact adds (the live cross_shard_ratio numerator/denominator).
	crossFrontier atomic.Int64
	crossContacts atomic.Int64
	totalContacts atomic.Int64
	laneContacts  []atomic.Int64

	// ingestHook and sealHook are the notification hooks of OnIngest and
	// OnSegmentSeal. They are invoked synchronously from Ingest/AddInstant
	// (the appender goroutine); registration must happen before the first
	// append.
	ingestHook func(iv Interval)
	sealHook   func(span Interval)
}

// ContactEvent is one observation from a contact feed: objects A and B
// were within contact range at tick Tick — or, with Retract set, that
// earlier observation is withdrawn. Events may arrive in any tick order;
// LiveEngine.Ingest is their entry point.
type ContactEvent struct {
	Tick    Tick
	A, B    ObjectID
	Retract bool
}

// IngestReport summarizes what one Ingest batch did.
type IngestReport struct {
	// Applied counts contact instants applied at (or beyond) the frontier;
	// Late counts instants applied behind it, into the tail overlay or a
	// sealed segment's delta log.
	Applied int
	Late    int
	// Retracted counts removed contact instants; Duplicates counts adds of
	// already-present instants; RetractMisses counts retractions that
	// matched nothing (both are dropped, not errors — feeds repeat).
	Retracted     int
	Duplicates    int
	RetractMisses int
	// Sealed lists the global tick spans of segments sealed by the batch;
	// Compacted counts dirty segments re-sealed by the Options.CompactEvents
	// threshold policy.
	Sealed    []Interval
	Compacted int
}

// ErrBadEvent reports a structurally invalid contact event (object out of
// range, self-contact, negative tick). Ingest validates the whole batch
// before applying anything, so a batch rejected with ErrBadEvent left the
// engine untouched.
var ErrBadEvent = errors.New("streach: bad contact event")

// ErrIngestHorizon reports an add whose tick lies at or beyond
// frontier + Options.IngestHorizon. Like ErrBadEvent it is raised during
// pre-validation: the batch is rejected whole.
var ErrIngestHorizon = errors.New("streach: event tick beyond ingest horizon")

// ErrNotLiveCapable reports a backend that cannot seal live segments: only
// contact-sourced backends with frontier entry points (reachgraph,
// reachgraph-mem, oracle) can.
var ErrNotLiveCapable = errors.New("streach: backend cannot serve a live feed")

// NewLiveEngine returns a live engine for numObjects objects moving in env
// with contact threshold contactDist. Sealed slabs are indexed with the
// named base backend, which must open from a contact network and support
// the segmented planner ("reachgraph", "reachgraph-mem" or "oracle");
// Options.SegmentTicks sets the slab width and disk-resident segments
// share one buffer pool (Options.Pool or a private one). A "bidir:"
// prefix on the backend name ("bidir:reachgraph", ...) routes point
// queries through the bidirectional planner, exactly as for the frozen
// "bidir:*" registry backends; the base must then be reverse-capable.
//
// A "shard:<K>:" prefix ("shard:4:reachgraph", "shard:2:bidir:reachgraph")
// hash-partitions the object population into K ingest lanes, each with its
// own segment log, buffer pool (unless Options.Pool is shared) and
// per-shard sealing/compaction; queries run the scatter-gather frontier
// relaxation over the lanes. Only the hash partitioner is live-capable —
// spatial partitioning snaps trajectories the feed does not carry.
func NewLiveEngine(backend string, numObjects int, env Rect, contactDist float64, opts Options) (*LiveEngine, error) {
	backend = strings.TrimSpace(backend)
	shards := 0
	if k, partitioner, rest, ok := parseShardName(strings.ToLower(backend)); ok {
		if partitioner != "hash" {
			return nil, fmt.Errorf("live shard:%s: %w (spatial partitioning snaps trajectories; live shards are hash-partitioned)",
				partitioner, ErrNotLiveCapable)
		}
		if k > numObjects {
			return nil, fmt.Errorf("streach: %d live shards exceed %d objects", k, numObjects)
		}
		shards, backend = k, rest
	}
	bidir := strings.HasPrefix(strings.ToLower(backend), "bidir:")
	if bidir {
		backend = backend[len("bidir:"):]
	}
	spec, ok := lookupSpec(backend)
	if !ok {
		return nil, fmt.Errorf("%w %q (available: %s)",
			ErrUnknownBackend, backend, joinLiveCapable())
	}
	if spec.info.NeedsTrajectories {
		return nil, fmt.Errorf("live %q: %w (indexes trajectories)", spec.info.Name, ErrNotLiveCapable)
	}
	if numObjects <= 0 {
		return nil, errors.New("streach: live engine needs at least one object")
	}
	if contactDist <= 0 {
		return nil, errors.New("streach: contact threshold must be positive")
	}
	makeBuild := func(laneOpts Options) segment.BuildFunc[frontierCore] {
		return func(span Interval, net *contact.Network) (frontierCore, error) {
			core, err := spec.open(&ContactNetwork{net: net}, laneOpts)
			if err != nil {
				return nil, err
			}
			fc, ok := core.(frontierCore)
			if !ok {
				return nil, fmt.Errorf("live %q: %w (no frontier entry points)", spec.info.Name, ErrNotLiveCapable)
			}
			return fc, nil
		}
	}
	slabOpts := withSharedSlabPool(opts, spec.info.DiskResident)
	build := makeBuild(slabOpts)
	// Probe seal-ability now, not at the first slab boundary: a one-tick
	// empty network must build.
	probe, err := build(NewInterval(0, 0), contact.FromContacts(numObjects, 1, nil))
	if err != nil {
		return nil, err
	}
	if _, ok := probe.(reverseFrontierCore); bidir && !ok {
		return nil, fmt.Errorf("live bidir:%s: %w (no reverse frontier entry points)", spec.info.Name, ErrNotLiveCapable)
	}
	horizon := opts.IngestHorizon
	switch {
	case horizon == 0:
		horizon = 4 * segment.Width(opts.SegmentTicks)
	case horizon < 0:
		horizon = -1
	}
	innerName := spec.info.Name
	if bidir {
		innerName = "bidir:" + spec.info.Name
	}
	name := "live:" + innerName
	if shards > 0 {
		name = fmt.Sprintf("live:shard:%d:%s", shards, innerName)
	}
	le := &LiveEngine{
		name:          name,
		base:          spec.info.Name,
		numObjects:    numObjects,
		joiner:        stjoin.NewJoiner(env, contactDist),
		log:           segment.NewLog[frontierCore](numObjects, opts.SegmentTicks, build),
		pool:          slabOpts.Pool,
		horizon:       horizon,
		compactEvents: max(opts.CompactEvents, 0),
		bidir:         bidir,
		parallelism:   opts.QueryParallelism,
		shards:        shards,
	}
	if shards > 1 {
		// K ingest lanes, lane 0 aliasing the primary log. Each lane gets a
		// private buffer pool via its own slab options unless the caller
		// shared Options.Pool (then every lane draws on that one and Stats
		// reports it pool-wide, exactly like unsharded engines).
		assign, err := shard.Hash(numObjects, shards)
		if err != nil {
			return nil, err
		}
		le.assign = assign
		le.lanes = make([]*segment.Log[frontierCore], shards)
		le.lanePools = make([]*BufferPool, shards)
		le.laneEvs = make([][]contact.Event, shards)
		le.laneSecEvs = make([][]contact.Event, shards)
		le.laneContacts = make([]atomic.Int64, shards)
		le.lanes[0] = le.log
		le.lanePools[0] = slabOpts.Pool
		for s := 1; s < shards; s++ {
			laneOpts := withSharedSlabPool(opts, spec.info.DiskResident)
			le.lanes[s] = segment.NewLog[frontierCore](numObjects, opts.SegmentTicks, makeBuild(laneOpts))
			le.lanePools[s] = laneOpts.Pool
		}
		if opts.Pool == nil {
			// Per-lane private pools: no single pool speaks for the engine;
			// Stats sums the lane pools instead.
			le.pool = nil
		}
	}
	return le, nil
}

// OnIngest registers fn to be invoked synchronously after every ingest
// that changes contact content, once per contiguous interval of changed
// ticks — a frontier append reports the new instant [t, t]; a late add or
// retraction reports the historical ticks it patched. A serving layer uses
// it to invalidate derived state (query caches) overlapping the interval.
// Register before the first append; the hook runs on the appender
// goroutine and must not ingest itself.
func (le *LiveEngine) OnIngest(fn func(iv Interval)) { le.ingestHook = fn }

// OnSegmentSeal registers fn to be invoked synchronously whenever an
// append closes the current time slab and seals it into an immutable
// index segment, with the sealed slab's global tick span. Register before
// the first AddInstant; the hook runs on the appender goroutine, after
// the seal is published (a query issued from inside the hook already sees
// the sealed segment).
func (le *LiveEngine) OnSegmentSeal(fn func(span Interval)) { le.sealHook = fn }

func joinLiveCapable() string {
	return "oracle, reachgraph, reachgraph-mem"
}

// Ingest folds a batch of contact events into the feed — the primary
// ingest surface. Events may target any tick: adds at the frontier extend
// the time domain (padding any gap with empty instants, sealing slabs as
// widths close), adds behind it land in the tail overlay or a sealed
// segment's delta log, and retractions remove previously ingested contact
// instants. Answers reflect the batch exactly as soon as Ingest returns —
// no compaction is needed for correctness.
//
// The whole batch is validated before anything is applied: a structurally
// invalid event (ErrBadEvent) or an add past the ingest horizon
// (ErrIngestHorizon) rejects the batch with the engine untouched. A seal
// or compaction build error can still leave the batch partially applied;
// the report states what was applied and the engine stays consistent.
// Like AddInstant, calls must come from a single goroutine.
func (le *LiveEngine) Ingest(events []ContactEvent) (IngestReport, error) {
	frontier := le.log.NumTicks()
	for i, ev := range events {
		switch {
		case ev.A < 0 || int(ev.A) >= le.numObjects || ev.B < 0 || int(ev.B) >= le.numObjects:
			return IngestReport{}, fmt.Errorf("%w: event %d: object out of range [0, %d)",
				ErrBadEvent, i, le.numObjects)
		case ev.A == ev.B:
			return IngestReport{}, fmt.Errorf("%w: event %d: self-contact of object %d",
				ErrBadEvent, i, ev.A)
		case ev.Tick < 0:
			return IngestReport{}, fmt.Errorf("%w: event %d: negative tick %d",
				ErrBadEvent, i, ev.Tick)
		case !ev.Retract && le.horizon >= 0 && int(ev.Tick) >= frontier+le.horizon:
			return IngestReport{}, fmt.Errorf("%w: event %d: tick %d vs frontier %d (horizon %d)",
				ErrIngestHorizon, i, ev.Tick, frontier, le.horizon)
		}
	}
	if le.lanes != nil {
		for s := range le.lanes {
			le.laneEvs[s] = le.laneEvs[s][:0]
			le.laneSecEvs[s] = le.laneSecEvs[s][:0]
		}
		for _, ev := range events {
			le.routeEvent(contact.Event{Tick: ev.Tick, A: ev.A, B: ev.B, Retract: ev.Retract})
		}
		return le.applyLanes()
	}
	evs := make([]contact.Event, len(events))
	for i, ev := range events {
		evs[i] = contact.Event{Tick: ev.Tick, A: ev.A, B: ev.B, Retract: ev.Retract}
	}
	res, err := le.log.IngestEvents(evs, le.compactEvents)
	le.fireHooks(res)
	return IngestReport{
		Applied:       res.Frontier,
		Late:          res.Late,
		Retracted:     res.Retracted,
		Duplicates:    res.Duplicates,
		RetractMisses: res.RetractMisses,
		Sealed:        res.Sealed,
		Compacted:     res.Compacted,
	}, err
}

// routeEvent appends e to its owner lanes' routing buffers: owner(A)'s
// primary batch carries the report counts, and when the endpoints live on
// different shards the duplicated copy lands in owner(B)'s secondary batch,
// so both shard sub-networks stay complete for their own objects. Adds also
// feed the live partition-quality counters.
func (le *LiveEngine) routeEvent(e contact.Event) {
	sa, sb := le.assign.Owner(e.A), le.assign.Owner(e.B)
	le.laneEvs[sa] = append(le.laneEvs[sa], e)
	if sb != sa {
		le.laneSecEvs[sb] = append(le.laneSecEvs[sb], e)
	}
	if !e.Retract {
		le.totalContacts.Add(1)
		le.laneContacts[sa].Add(1)
		if sb != sa {
			le.crossContacts.Add(1)
			le.laneContacts[sb].Add(1)
		}
	}
}

// applyLanes folds the routed batches into every lane and re-aligns the
// lane clocks to the common frontier, so a shard whose objects were quiet
// still covers the ticks its peers ingested. Per-event report counts come
// from the primary batches alone (a cross-shard event is one event, however
// many lanes store it); Compacted sums over lanes, and Sealed — with the
// seal hook — reports lane 0's spans, identical across lanes once aligned.
func (le *LiveEngine) applyLanes() (IngestReport, error) {
	var rep IngestReport
	var firstErr error
	for s, lg := range le.lanes {
		if len(le.laneEvs[s]) > 0 {
			res, err := lg.IngestEvents(le.laneEvs[s], le.compactEvents)
			le.countLane(s, res, &rep, true)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if len(le.laneSecEvs[s]) > 0 {
			res, err := lg.IngestEvents(le.laneSecEvs[s], le.compactEvents)
			le.countLane(s, res, &rep, false)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	frontier := 0
	for _, lg := range le.lanes {
		if n := lg.NumTicks(); n > frontier {
			frontier = n
		}
	}
	for s, lg := range le.lanes {
		if lg.NumTicks() >= frontier {
			continue
		}
		res, err := lg.AdvanceTo(frontier)
		le.countLane(s, res, &rep, false)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return rep, firstErr
}

// countLane accumulates one lane apply into the batch report and fires the
// hooks for it. The ingest hook fires per lane — an invalidation heard once
// per shard that changed is idempotent for derived state; the seal hook
// fires from lane 0 only, whose slab boundaries speak for all lanes.
func (le *LiveEngine) countLane(s int, res segment.ApplyResult, rep *IngestReport, primary bool) {
	if primary {
		rep.Applied += res.Frontier
		rep.Late += res.Late
		rep.Retracted += res.Retracted
		rep.Duplicates += res.Duplicates
		rep.RetractMisses += res.RetractMisses
	}
	rep.Compacted += res.Compacted
	if s == 0 {
		rep.Sealed = append(rep.Sealed, res.Sealed...)
	}
	if le.ingestHook != nil {
		for _, iv := range res.Changed {
			le.ingestHook(iv)
		}
	}
	if s == 0 && le.sealHook != nil {
		for _, span := range res.Sealed {
			le.sealHook(span)
		}
	}
}

// AddInstant ingests the next instant of the feed; positions[i] is object
// i's position. It is a thin position-join wrapper over the event path:
// the joined pairs become frontier ContactEvents (a pair-less instant
// still advances the clock). Appends must come from a single goroutine;
// queries may run concurrently. When the append closes the current slab,
// the slab is sealed into an immutable index segment before AddInstant
// returns.
func (le *LiveEngine) AddInstant(positions []Point) error {
	if len(positions) != le.numObjects {
		return fmt.Errorf("streach: got %d positions, want %d", len(positions), le.numObjects)
	}
	tick := Tick(le.log.NumTicks())
	le.evScratch = le.evScratch[:0]
	le.joiner.Join(positions, func(a, b int) bool {
		le.evScratch = append(le.evScratch, contact.Event{Tick: tick, A: ObjectID(a), B: ObjectID(b)})
		return true
	})
	if le.lanes != nil {
		if len(le.evScratch) == 0 {
			return le.advanceLanes(int(tick) + 1)
		}
		for s := range le.lanes {
			le.laneEvs[s] = le.laneEvs[s][:0]
			le.laneSecEvs[s] = le.laneSecEvs[s][:0]
		}
		for _, e := range le.evScratch {
			le.routeEvent(e)
		}
		_, err := le.applyLanes()
		return err
	}
	var res segment.ApplyResult
	var err error
	if len(le.evScratch) == 0 {
		res, err = le.log.AdvanceTo(int(tick) + 1)
	} else {
		res, err = le.log.IngestEvents(le.evScratch, 0)
	}
	le.fireHooks(res)
	return err
}

// advanceLanes pads every lane to numTicks ticks, firing hooks per lane.
func (le *LiveEngine) advanceLanes(numTicks int) error {
	var rep IngestReport
	var firstErr error
	for s, lg := range le.lanes {
		res, err := lg.AdvanceTo(numTicks)
		le.countLane(s, res, &rep, false)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AdvanceTo pads the feed with empty instants until tick is part of the
// time domain — the clock half of ingestion, decoupled from contact
// arrival so a quiet feed still moves the frontier (and with it the
// ingest horizon). Already-covered ticks are a no-op; the clock never
// rewinds. Single appender goroutine, like all ingestion.
func (le *LiveEngine) AdvanceTo(tick Tick) error {
	if le.lanes != nil {
		return le.advanceLanes(int(tick) + 1)
	}
	res, err := le.log.AdvanceTo(int(tick) + 1)
	le.fireHooks(res)
	return err
}

// Compact re-seals every sealed segment carrying pending delta-log events,
// folding the corrections into fresh immutable index segments built
// through the base backend; the delta logs reset to empty. Query answers
// are unchanged — compaction trades the overlay's oracle evaluation for
// the base backend's indexed one. Returns the number of segments rebuilt.
// Runs on the appender goroutine; queries may run concurrently and keep
// their (still-exact) views.
func (le *LiveEngine) Compact() (int, error) {
	if le.lanes != nil {
		total := 0
		var firstErr error
		for _, lg := range le.lanes {
			n, err := lg.Compact()
			total += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return total, firstErr
	}
	return le.log.Compact()
}

// ContactActiveAt reports whether contact (a, b) is part of the feed's
// current effective state at tick t — ingested (directly or late) and not
// retracted. A serving layer uses it to pre-validate wire retractions.
func (le *LiveEngine) ContactActiveAt(a, b ObjectID, t Tick) bool {
	if le.lanes != nil {
		// Owner(a)'s lane holds every contact incident to a, including the
		// duplicated cross-shard copies.
		return le.lanes[le.assign.Owner(a)].ActiveAt(a, b, t)
	}
	return le.log.ActiveAt(a, b, t)
}

// fireHooks reports an ingest outcome to the registered hooks. Hooks fire
// even when the ingest ultimately erred: everything listed in res was
// genuinely applied, so derived state must still hear about it.
func (le *LiveEngine) fireHooks(res segment.ApplyResult) {
	if le.ingestHook != nil {
		for _, iv := range res.Changed {
			le.ingestHook(iv)
		}
	}
	if le.sealHook != nil {
		for _, span := range res.Sealed {
			le.sealHook(span)
		}
	}
}

// NumTicks returns the number of instants ingested so far.
func (le *LiveEngine) NumTicks() int { return le.log.NumTicks() }

// NumSealedSegments returns the number of sealed (immutable) segments.
func (le *LiveEngine) NumSealedSegments() int { return le.log.NumSealed() }

// Snapshot returns the contact network over every instant ingested so far
// — the same network a ContactStream would snapshot — for validation
// against ground truth. The engine remains usable.
func (le *LiveEngine) Snapshot() *ContactNetwork {
	return &ContactNetwork{net: le.snapshotNet()}
}

func (le *LiveEngine) snapshotNet() *contact.Network {
	if le.lanes == nil {
		return le.log.Snapshot()
	}
	// Merge the lane snapshots back into the whole-population network,
	// deduplicating the cross-shard contacts the cut stored twice.
	nets := make([]*contact.Network, len(le.lanes))
	numTicks := 0
	for s, lg := range le.lanes {
		nets[s] = lg.Snapshot()
		if nets[s].NumTicks > numTicks {
			numTicks = nets[s].NumTicks
		}
	}
	return shard.Merge(nets, le.numObjects, numTicks)
}

// logView assembles the planner's slab list of one segment log: sealed
// segments plus, when the tail holds instants, an oracle core over the
// tail's slab-local network. A dirty sealed segment — one with pending
// delta-log events — is served by an oracle over its overlay network
// instead of its (stale) sealed index, so out-of-order corrections are
// query-visible immediately. Everything returned is immutable, so the query
// proceeds lock-free.
func logView(lg *segment.Log[frontierCore]) ([]segSlab, int) {
	sealed, tailSpan, tailNet, numTicks := lg.View()
	slabs := make([]segSlab, 0, len(sealed)+1)
	for _, s := range sealed {
		core := s.Value
		if s.Overlay != nil {
			core = oracleCore{o: queries.NewOracle(s.Overlay)}
		}
		slabs = append(slabs, segSlab{span: s.Span, core: core})
	}
	if tailNet != nil {
		slabs = append(slabs, segSlab{span: tailSpan, core: oracleCore{o: queries.NewOracle(tailNet)}})
	}
	return slabs, numTicks
}

// pin takes one consistent view of the feed and wraps it in the ordinary
// engine, so every live query runs the same entry points and planners as
// the frozen "segmented:*", "bidir:*" and "shard:*" backends. An unsharded
// engine pins a segmentedCore over its log; a sharded one pins a shardCore
// with one segmentedCore per lane, over the common time domain — the
// minimum lane frontier, so a query racing an append sees only ticks every
// lane has covered. The oracle fallback snapshots the feed on first use;
// the snapshot may include instants ingested after the view was taken, and
// answers remain exact for every instant of the view.
func (le *LiveEngine) pin() *engine {
	e := &engine{name: le.name, numObjects: le.numObjects, src: liveSource{le}}
	if le.lanes == nil {
		core := le.viewCore(le.log)
		e.core, e.numTicks = core, core.numTicks
		return e
	}
	sh := &shardCore{
		assign:        le.assign,
		children:      make([]engineCore, len(le.lanes)),
		sems:          make([]semCore, len(le.lanes)),
		numObjects:    le.numObjects,
		numTicks:      -1,
		parallelism:   le.parallelism,
		crossFrontier: &le.crossFrontier,
	}
	for s, lg := range le.lanes {
		core := le.viewCore(lg)
		sh.children[s], sh.sems[s] = core, core
		if sh.numTicks < 0 || core.numTicks < sh.numTicks {
			sh.numTicks = core.numTicks
		}
	}
	e.core, e.numTicks = sh, sh.numTicks
	return e
}

// viewCore pins a view of one segment log as a segmentedCore.
func (le *LiveEngine) viewCore(lg *segment.Log[frontierCore]) *segmentedCore {
	slabs, numTicks := logView(lg)
	return &segmentedCore{
		slabs:       slabs,
		numObjects:  le.numObjects,
		numTicks:    numTicks,
		bidir:       le.bidir,
		parallelism: le.parallelism,
	}
}

// liveSource is the Source of a pinned view: the fresh feed snapshot the
// oracle fallback evaluates over.
type liveSource struct{ le *LiveEngine }

func (s liveSource) sourceDataset() *Dataset         { return nil }
func (s liveSource) sourceContacts() *ContactNetwork { return s.le.Snapshot() }

// Name returns "live:<base>".
func (le *LiveEngine) Name() string { return le.name }

// Reachable answers q over every instant ingested before the call took its
// view of the log. A sharded engine answers every point query with the
// scatter-gather relaxation, "bidir:" bases included: the bidirectional
// planner needs the undivided network, which no single lane holds.
func (le *LiveEngine) Reachable(ctx context.Context, q Query) (Result, error) {
	return le.pin().Reachable(ctx, q)
}

// ReachableSet returns every object reachable from src during iv, sorted
// ascending and deduplicated.
func (le *LiveEngine) ReachableSet(ctx context.Context, src ObjectID, iv Interval) (SetResult, error) {
	return le.pin().ReachableSet(ctx, src, iv)
}

// EarliestArrival returns the first ingested tick in iv at which dst
// holds an item initiated by src, over every instant ingested before the
// call took its view of the log. Arrival ticks carry across sealed-slab
// frontiers through the cross-segment planner; bases without a native
// arrival sweep fall back to an oracle over a fresh snapshot (all current
// live-capable bases are arrival-native).
func (le *LiveEngine) EarliestArrival(ctx context.Context, src, dst ObjectID, iv Interval) (ArrivalResult, error) {
	return le.pin().EarliestArrival(ctx, src, dst, iv)
}

// TopKReachable ranks the objects reachable from src during iv under
// per-transfer decay; see Engine.TopKReachable. Transfer counting needs
// per-instant relaxation, so bases whose sealed segments cannot count
// hops (reachgraph, reachgraph-mem) answer through an oracle over a
// fresh snapshot of the ingested feed.
func (le *LiveEngine) TopKReachable(ctx context.Context, src ObjectID, iv Interval, k int, decay float64) (TopKResult, error) {
	return le.pin().TopKReachable(ctx, src, iv, k, decay)
}

// IndexBytes returns the total on-disk size of the sealed segments (zero
// for memory-resident bases and before the first seal). Dirty segments
// still count: the sealed index exists on disk until compaction replaces
// it.
func (le *LiveEngine) IndexBytes() int64 {
	var sum int64
	for _, lg := range le.allLogs() {
		sealed, _, _, _ := lg.View()
		for _, s := range sealed {
			sum += s.Value.indexBytes()
		}
	}
	return sum
}

// allLogs returns the engine's segment logs: the ingest lanes of a sharded
// engine, or the single log otherwise.
func (le *LiveEngine) allLogs() []*segment.Log[frontierCore] {
	if le.lanes != nil {
		return le.lanes
	}
	return []*segment.Log[frontierCore]{le.log}
}

// IOTotals returns the cumulative simulated disk traffic of the sealed
// segments.
func (le *LiveEngine) IOTotals() IOStats {
	var sum pagefile.Stats
	for _, lg := range le.allLogs() {
		sealed, _, _, _ := lg.View()
		for _, s := range sealed {
			sum.Add(s.Value.ioTotals())
		}
	}
	return statsOf(sum)
}

// Stats returns a consistent snapshot of the live engine's observable
// state; see Engine.Stats. NumTicks and the segment counts reflect the
// instants ingested before the snapshot, and may lag an ongoing append by
// at most one instant. DeltaEvents/DirtySegments expose the current
// delta-log pressure; LateEvents/Retractions/Compactions are cumulative.
func (le *LiveEngine) Stats() EngineStats {
	sealed, _, tailNet, numTicks := le.log.View()
	segments := len(sealed)
	if tailNet != nil {
		segments++
	}
	st := EngineStats{
		Backend:        le.name,
		NumObjects:     le.numObjects,
		NumTicks:       numTicks,
		Segments:       segments,
		SealedSegments: len(sealed),
	}
	// Sharded engines sum the per-lane footprints and ingest counters; the
	// counters count lane applications, so a cross-shard event stored on
	// both sides counts once per side, like ShardStats.Contacts. Segment
	// counts come from lane 0, whose slab boundaries speak for all lanes.
	var io pagefile.Stats
	for _, lg := range le.allLogs() {
		laneSealed, _, _, _ := lg.View()
		for _, s := range laneSealed {
			io.Add(s.Value.ioTotals())
			st.IndexBytes += s.Value.indexBytes()
			st.DeltaEvents += s.Pending
			if s.Pending > 0 {
				st.DirtySegments++
			}
		}
		c := lg.Counters()
		st.LateEvents += c.LateApplied
		st.Retractions += c.Retractions
		st.Compactions += c.Compactions
	}
	st.IO = statsOf(io)
	if le.pool != nil {
		st.HasPool = true
		st.Pool = le.pool.Stats()
	} else {
		// Per-lane private pools: report their summed counters, the same
		// convention as the frozen shard backends.
		st.Pool, st.HasPool = sumPoolStats(le.lanePools)
	}
	if le.shards > 0 {
		st.Shards = le.shards
		st.Partitioner = "hash"
		st.CrossShardFrontier = le.crossFrontier.Load()
		if total := le.totalContacts.Load(); total > 0 {
			st.CrossShardRatio = float64(le.crossContacts.Load()) / float64(total)
		}
		st.ShardDetails = le.ShardStats()
	}
	return st
}

// ShardStats returns one entry per ingest lane; nil for engines opened
// without a "shard:<K>:" prefix (or with K = 1, which keeps the single
// unsharded log). Contacts counts the contact adds routed to the lane so
// far — cross-shard contacts once per side.
func (le *LiveEngine) ShardStats() []ShardStats {
	if le.lanes == nil {
		return nil
	}
	out := make([]ShardStats, len(le.lanes))
	for s, lg := range le.lanes {
		sealed, _, _, _ := lg.View()
		st := ShardStats{
			Shard:    s,
			Objects:  le.assign.Objects(s),
			Contacts: int(le.laneContacts[s].Load()),
		}
		var io pagefile.Stats
		for _, sv := range sealed {
			io.Add(sv.Value.ioTotals())
			st.IndexBytes += sv.Value.indexBytes()
		}
		st.IO = statsOf(io)
		out[s] = st
	}
	return out
}

// SegmentStats returns one entry per segment — sealed segments first, then
// the mutable tail (which never charges I/O) when it holds instants. A
// sealed segment's DeltaEvents is its pending delta-log depth.
func (le *LiveEngine) SegmentStats() []SegmentStats {
	sealed, tailSpan, tailNet, _ := le.log.View()
	out := make([]SegmentStats, 0, len(sealed)+1)
	io := make([]pagefile.Stats, len(sealed))
	for i, s := range sealed {
		io[i] = s.Value.ioTotals()
		out = append(out, SegmentStats{
			Span:        s.Span,
			IndexBytes:  s.Value.indexBytes(),
			DeltaEvents: s.Pending,
		})
	}
	// Lanes 1..K-1 seal the same slab spans as lane 0 (the appender keeps
	// the clocks aligned); fold their per-slab footprints in by index so an
	// entry stays "one time slab, summed across shards".
	if le.lanes != nil {
		for _, lg := range le.lanes[1:] {
			laneSealed, _, _, _ := lg.View()
			for i, s := range laneSealed {
				if i >= len(out) {
					break
				}
				io[i].Add(s.Value.ioTotals())
				out[i].IndexBytes += s.Value.indexBytes()
				out[i].DeltaEvents += s.Pending
			}
		}
	}
	for i := range out {
		out[i].IO = statsOf(io[i])
	}
	if tailNet != nil {
		out = append(out, SegmentStats{Span: tailSpan})
	}
	return out
}

var _ Engine = (*LiveEngine)(nil)
var _ Segmented = (*LiveEngine)(nil)
var _ Sharded = (*LiveEngine)(nil)
