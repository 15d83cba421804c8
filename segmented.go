// Time-sliced index segments and the cross-segment query planner.
//
// A segmented backend ("segmented:<name>") splits the dataset's time axis
// into fixed-width slabs (Options.SegmentTicks) and builds one immutable
// index segment of the base backend per slab, all disk-resident segments
// drawing on one shared BufferPool. Queries are planned across segments:
// the planner walks only the slabs overlapping the query interval in time
// order, carrying the reachable frontier from slab to slab — the reachable
// set at the end of slab k becomes the multi-source seed set of slab k+1 —
// and short-circuits as soon as the destination is infected (or the
// context is cancelled). Correctness rests on the same per-instant
// propagation semantics the oracle executes: infection is monotone and
// memoryless across instants, so propagation over [t1, t2] factors exactly
// into propagation over consecutive sub-intervals with the frontier as the
// only carried state.
//
// The architecture exists for incremental ingestion (see LiveEngine): a
// new stretch of feed only ever adds segments, so historical slabs are
// never rebuilt.

package streach

import (
	"context"
	"fmt"
	"sort"

	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/segment"
	"streach/internal/visit"
)

// frontierCore is the multi-source surface of a segmentable backend: the
// usual point query generalized to a seed frontier, plus the native
// reachable-set primitive the planner uses to carry the frontier across
// slab boundaries. Implementations return sorted, deduplicated sets.
type frontierCore interface {
	engineCore
	// reachFrom answers "can an item held by any seed at iv.Lo reach dst
	// by iv.Hi?".
	reachFrom(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, acct *pagefile.Stats) (bool, int, error)
	// appendFrontier appends every object reachable from the seeds during
	// iv (seeds included when the interval overlaps the time domain) onto
	// dst and returns it. dst's backing array is reused — the planner
	// ping-pongs two pooled buffers across the slab walk instead of
	// materializing a fresh frontier slice per slab.
	appendFrontier(ctx context.Context, dst, seeds []ObjectID, iv Interval, acct *pagefile.Stats) ([]ObjectID, int, error)
}

// reverseFrontierCore is the backward surface of a bidir-capable backend:
// appendReverseFrontier appends the deliverer set of the seeds over iv —
// every object that, holding an item at iv.Lo, would deliver it to some
// seed by iv.Hi (seeds included when the interval overlaps the time
// domain) — onto dst and returns it, sorted and deduplicated. Like
// appendFrontier, dst's backing array is reused across the slab walk.
// Implemented by the backends with a native reverse traversal (reachgraph
// disk/mem walk DN1 in-edges in reverse time order; the oracle runs its
// time-mirrored propagation); ReachGrid's guided spatial expansion has no
// backward analogue, so bidirectional planning excludes it.
type reverseFrontierCore interface {
	frontierCore
	appendReverseFrontier(ctx context.Context, dst, seeds []ObjectID, iv Interval, acct *pagefile.Stats) ([]ObjectID, int, error)
}

func (c gridCore) reachFrom(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, acct *pagefile.Stats) (bool, int, error) {
	return c.ix.ReachFromCounted(ctx, seeds, dst, iv, acct)
}

func (c gridCore) appendFrontier(ctx context.Context, dst, seeds []ObjectID, iv Interval, acct *pagefile.Stats) ([]ObjectID, int, error) {
	return c.ix.AppendReachableSetFrom(ctx, dst, seeds, iv, acct)
}

func (c graphCore) reachFrom(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, acct *pagefile.Stats) (bool, int, error) {
	return c.ix.ReachFromCounted(ctx, seeds, dst, iv, c.strategy, acct)
}

func (c graphCore) appendFrontier(ctx context.Context, dst, seeds []ObjectID, iv Interval, acct *pagefile.Stats) ([]ObjectID, int, error) {
	return c.ix.AppendReachableSetFromCounted(ctx, dst, seeds, iv, acct)
}

func (c graphCore) appendReverseFrontier(ctx context.Context, dst, seeds []ObjectID, iv Interval, acct *pagefile.Stats) ([]ObjectID, int, error) {
	return c.ix.AppendReverseSetFromCounted(ctx, dst, seeds, iv, acct)
}

func (c graphMemCore) reachFrom(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, _ *pagefile.Stats) (bool, int, error) {
	return c.m.ReachFromCounted(ctx, seeds, dst, iv, BMBFS)
}

func (c graphMemCore) appendFrontier(ctx context.Context, dst, seeds []ObjectID, iv Interval, _ *pagefile.Stats) ([]ObjectID, int, error) {
	return c.m.AppendReachableSetFromCounted(ctx, dst, seeds, iv)
}

func (c graphMemCore) appendReverseFrontier(ctx context.Context, dst, seeds []ObjectID, iv Interval, _ *pagefile.Stats) ([]ObjectID, int, error) {
	return c.m.AppendReverseSetFromCounted(ctx, dst, seeds, iv)
}

func (c oracleCore) reachFrom(_ context.Context, seeds []ObjectID, dst ObjectID, iv Interval, _ *pagefile.Stats) (bool, int, error) {
	ok, expanded := c.o.ReachableFromCounted(seeds, dst, iv)
	return ok, expanded, nil
}

func (c oracleCore) appendFrontier(_ context.Context, dst, seeds []ObjectID, iv Interval, _ *pagefile.Stats) ([]ObjectID, int, error) {
	set := c.o.ReachableSetFrom(seeds, iv)
	return append(dst, set...), len(set), nil
}

func (c oracleCore) appendReverseFrontier(_ context.Context, dst, seeds []ObjectID, iv Interval, _ *pagefile.Stats) ([]ObjectID, int, error) {
	set := c.o.ReverseReachableSetFrom(seeds, iv)
	return append(dst, set...), len(set), nil
}

// segSlab is one sealed segment as the planner sees it: its global tick
// span plus the per-slab core evaluating slab-local queries.
type segSlab struct {
	span Interval
	core frontierCore
}

// planScratch holds the two frontier buffers a cross-segment walk
// ping-pongs between: the frontier of slab k is consumed from one buffer
// while slab k+1's is appended into the other, so a steady-state planner
// query re-materializes no frontier slices at all. Pooled package-wide —
// every segmented engine and LiveEngine query draws on the same pool.
type planScratch struct {
	a, b []ObjectID
}

var planPool = visit.NewPool(func() *planScratch { return new(planScratch) })

// planReach is the cross-segment point-query planner. slabs must be in
// ascending span order and tile the time domain prefix they cover; the
// planner touches only the slabs overlapping the query interval. It
// validates ids against numObjects and clamps the interval to
// [0, numTicks). par is the worker budget for large frontier sweeps
// (Options.QueryParallelism; <= 1 keeps every sweep serial).
func planReach(ctx context.Context, slabs []segSlab, numObjects, numTicks int, q Query, par int, acct *pagefile.Stats) (bool, int, error) {
	if err := validatePlanIDs(numObjects, q.Src, q.Dst); err != nil {
		return false, 0, err
	}
	iv := q.Interval.Intersect(Interval{Lo: 0, Hi: Tick(numTicks - 1)})
	if numTicks == 0 || iv.Len() == 0 {
		return false, 0, nil
	}
	if q.Src == q.Dst {
		return true, 0, nil
	}
	sc := planPool.Get()
	defer planPool.Put(sc)
	first, last := overlappingSlabs(slabs, iv)
	sc.a = append(sc.a[:0], q.Src)
	frontier := sc.a
	expanded := 0
	for i := first; i <= last; i++ {
		if err := ctx.Err(); err != nil {
			return false, expanded, err
		}
		w, local := localInterval(slabs[i].span, iv)
		if w.Len() == 0 {
			continue
		}
		if i == last {
			ok, n, err := slabs[i].core.reachFrom(ctx, frontier, q.Dst, local, acct)
			return ok, expanded + n, err
		}
		fr, n, err := sweepFrontier(ctx, slabs[i].core, sc.b[:0], frontier, local, par, acct)
		sc.b = fr
		expanded += n
		if err != nil {
			return false, expanded, err
		}
		if containsObject(fr, q.Dst) {
			// The destination is already infected mid-interval; infection
			// is monotone, so later slabs cannot change the answer.
			return true, expanded, nil
		}
		sc.a, sc.b = sc.b, sc.a
		frontier = sc.a
	}
	return false, expanded, nil
}

// planSet is the cross-segment reachable-set planner: the frontier is
// carried through every overlapping slab and the final frontier is the
// answer (sorted, deduplicated; copied out of the pooled buffers).
func planSet(ctx context.Context, slabs []segSlab, numObjects, numTicks int, src ObjectID, iv Interval, par int, acct *pagefile.Stats) ([]ObjectID, int, error) {
	if err := validatePlanIDs(numObjects, src, src); err != nil {
		return nil, 0, err
	}
	iv = iv.Intersect(Interval{Lo: 0, Hi: Tick(numTicks - 1)})
	if numTicks == 0 || iv.Len() == 0 {
		return nil, 0, nil
	}
	sc := planPool.Get()
	defer planPool.Put(sc)
	first, last := overlappingSlabs(slabs, iv)
	sc.a = append(sc.a[:0], src)
	frontier := sc.a
	expanded := 0
	for i := first; i <= last; i++ {
		if err := ctx.Err(); err != nil {
			return nil, expanded, err
		}
		w, local := localInterval(slabs[i].span, iv)
		if w.Len() == 0 {
			continue
		}
		fr, n, err := sweepFrontier(ctx, slabs[i].core, sc.b[:0], frontier, local, par, acct)
		sc.b = fr
		expanded += n
		if err != nil {
			return nil, expanded, err
		}
		sc.a, sc.b = sc.b, sc.a
		frontier = sc.a
	}
	return append([]ObjectID(nil), frontier...), expanded, nil
}

// planReverseSet is the backward cross-segment plan, the time mirror of
// planSet: it visits slabs[from..to] newest-first, seeding slab k with
// slab k+1's reverse frontier (the initial seeds stand in for the frontier
// beyond slab to), and appends the final frontier — every object that,
// holding an item at the start of slab from's overlap with iv, delivers it
// to one of the original seeds by iv.Hi — onto dst, sorted and
// deduplicated. Correctness is the time mirror of the forward planner's:
// delivery composes across consecutive sub-intervals with the deliverer
// frontier as the only carried state. Every visited slab core must
// implement reverseFrontierCore (the bidir backends verify this at open).
func planReverseSet(ctx context.Context, slabs []segSlab, from, to int, dst, seeds []ObjectID, iv Interval, par int, acct *pagefile.Stats) ([]ObjectID, int, error) {
	sc := planPool.Get()
	defer planPool.Put(sc)
	sc.a = append(sc.a[:0], seeds...)
	frontier := sc.a
	expanded := 0
	for i := to; i >= from; i-- {
		if err := ctx.Err(); err != nil {
			return dst, expanded, err
		}
		w, local := localInterval(slabs[i].span, iv)
		if w.Len() == 0 {
			continue
		}
		rc, ok := slabs[i].core.(reverseFrontierCore)
		if !ok {
			return dst, expanded, fmt.Errorf("streach: segment %v has no reverse frontier entry points", slabs[i].span)
		}
		fr, n, err := sweepReverseFrontier(ctx, rc, sc.b[:0], frontier, local, par, acct)
		sc.b = fr
		expanded += n
		if err != nil {
			return dst, expanded, err
		}
		sc.a, sc.b = sc.b, sc.a
		frontier = sc.a
	}
	return append(dst, frontier...), expanded, nil
}

// semPlanScratch is the pooled working state of one cross-segment
// semantic query: the global hop/arrival tables, the reached-object list,
// and the per-slab seed and entry buffers.
type semPlanScratch struct {
	hops    visit.Ticks // object → minimal transfers so far (tracked mode)
	arrival visit.Ticks // object → global earliest arrival
	reached []ObjectID
	seeds   []queries.SeedState
	buf     []queries.ProfileEntry
}

var semPlanPool = visit.NewPool(func() *semPlanScratch { return new(semPlanScratch) })

// planSemProfile is the cross-segment semantics planner: it walks the
// slabs overlapping iv in time order, seeding each slab with every object
// reached so far — carrying its residual hop budget (budget minus the
// transfers already spent) in hop-tracking mode — and merges the slab's
// slab-local profile back into the global tables: arrivals re-based to
// global ticks keep their first (earliest) value, hop counts keep their
// minimum. Correctness rests on the propagation state being Markovian in
// the per-object minimal hop counts: what an interval suffix can infect
// depends only on who currently holds the item and how many transfers
// each holder has spent. Every slab core must implement semCore and
// support spec (callers gate on this). A valid earlyDst short-circuits
// the walk as soon as it is reached.
func planSemProfile(ctx context.Context, slabs []segSlab, numObjects, numTicks int, dst []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, earlyDst ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	iv = iv.Intersect(Interval{Lo: 0, Hi: Tick(numTicks - 1)})
	if numTicks == 0 || iv.Len() == 0 {
		return dst, 0, nil
	}
	trackHops := spec.tracksHops()
	ps := semPlanPool.Get()
	defer semPlanPool.Put(ps)
	ps.hops.Reset(numObjects)
	ps.arrival.Reset(numObjects)
	ps.reached = ps.reached[:0]
	for _, s := range seeds {
		if int(s.Obj) < 0 || int(s.Obj) >= numObjects || s.Hops < 0 || s.Hops > spec.budget {
			continue
		}
		if s.Start > iv.Hi {
			continue
		}
		at := s.Start
		if at < iv.Lo {
			at = iv.Lo
		}
		if prev, ok := ps.hops.Get(int(s.Obj)); !ok {
			ps.hops.Set(int(s.Obj), s.Hops)
			ps.arrival.Set(int(s.Obj), int32(at))
			ps.reached = append(ps.reached, s.Obj)
		} else if s.Hops < prev {
			ps.hops.Set(int(s.Obj), s.Hops)
		}
	}
	if len(ps.reached) == 0 {
		return dst, 0, nil
	}
	dstReached := func() bool {
		if int(earlyDst) < 0 || int(earlyDst) >= numObjects {
			return false
		}
		_, ok := ps.hops.Get(int(earlyDst))
		return ok
	}
	expanded := 0
	first, last := overlappingSlabs(slabs, iv)
	for i := first; i <= last && !dstReached(); i++ {
		if err := ctx.Err(); err != nil {
			return dst, expanded, err
		}
		w, local := localInterval(slabs[i].span, iv)
		if w.Len() == 0 {
			continue
		}
		// Seed the slab with every object holding the item by the slab's
		// window: objects arriving in an earlier slab enter at the window
		// start (Start re-bases below local lo and clamps up), objects
		// activating inside this slab enter at their own local tick, and
		// objects activating later stay out of the frontier for now.
		base := slabs[i].span.Lo
		ps.seeds = ps.seeds[:0]
		for _, o := range ps.reached {
			arr, _ := ps.arrival.Get(int(o))
			if Tick(arr) > w.Hi {
				continue
			}
			h := int32(0)
			if trackHops {
				h, _ = ps.hops.Get(int(o))
			}
			st := Tick(arr) - base
			if st < 0 {
				st = 0
			}
			ps.seeds = append(ps.seeds, queries.SeedState{Obj: o, Hops: h, Start: st})
		}
		if len(ps.seeds) == 0 {
			continue
		}
		sc, ok := slabs[i].core.(semCore)
		if !ok {
			return dst, expanded, fmt.Errorf("streach: segment %v has no semantics entry points", slabs[i].span)
		}
		entries, n, err := sc.semProfile(ctx, ps.buf[:0], ps.seeds, local, spec, earlyDst, acct)
		ps.buf = entries
		expanded += n
		if err != nil {
			return dst, expanded, err
		}
		for _, en := range entries {
			if prev, ok := ps.hops.Get(int(en.Obj)); !ok {
				h := en.Hops
				if !trackHops {
					// Hop-agnostic mode: cores may or may not count
					// transfers; normalize to "untracked" so mixed slab
					// answers stay consistent.
					h = -1
				}
				ps.hops.Set(int(en.Obj), h)
				ps.arrival.Set(int(en.Obj), int32(base+en.Arrival))
				ps.reached = append(ps.reached, en.Obj)
			} else {
				// Already reached: a slab can still beat a deferred seed's
				// provisional activation arrival (organic propagation inside
				// the seed's own slab arrives first), and a later slab may
				// deliver the item over fewer transfers.
				if prevArr, _ := ps.arrival.Get(int(en.Obj)); int32(base+en.Arrival) < prevArr {
					ps.arrival.Set(int(en.Obj), int32(base+en.Arrival))
				}
				if trackHops && en.Hops >= 0 && en.Hops < prev {
					ps.hops.Set(int(en.Obj), en.Hops)
				}
			}
		}
	}
	list := sortDedupObjects(ps.reached)
	for _, o := range list {
		h, _ := ps.hops.Get(int(o))
		arr, _ := ps.arrival.Get(int(o))
		dst = append(dst, queries.ProfileEntry{Obj: o, Hops: h, Arrival: Tick(arr)})
	}
	return dst, expanded, nil
}

func (c *segmentedCore) semSupports(spec semSpec) bool {
	for _, s := range c.slabs {
		sc, ok := s.core.(semCore)
		if !ok || !sc.semSupports(spec) {
			return false
		}
	}
	return true
}

func (c *segmentedCore) semProfile(ctx context.Context, dst []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, earlyDst ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	return planSemProfile(ctx, c.slabs, c.numObjects, c.numTicks, dst, seeds, iv, spec, earlyDst, acct)
}

// overlappingSlabs returns the index range of slabs whose spans overlap iv
// (spans are ascending and disjoint). last < first when none overlap.
func overlappingSlabs(slabs []segSlab, iv Interval) (first, last int) {
	first = sort.Search(len(slabs), func(i int) bool { return slabs[i].span.Hi >= iv.Lo })
	last = sort.Search(len(slabs), func(i int) bool { return slabs[i].span.Lo > iv.Hi }) - 1
	return first, last
}

// localInterval clips iv to the slab and re-bases it to slab-local ticks.
func localInterval(span, iv Interval) (global, local Interval) {
	w := span.Intersect(iv)
	if w.Len() == 0 {
		return w, w
	}
	return w, Interval{Lo: w.Lo - span.Lo, Hi: w.Hi - span.Lo}
}

// containsObject reports whether sorted contains o (binary search).
func containsObject(sorted []ObjectID, o ObjectID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= o })
	return i < len(sorted) && sorted[i] == o
}

func validatePlanIDs(numObjects int, src, dst ObjectID) error {
	if int(src) < 0 || int(src) >= numObjects {
		return fmt.Errorf("streach: source %d outside [0, %d)", src, numObjects)
	}
	if int(dst) < 0 || int(dst) >= numObjects {
		return fmt.Errorf("streach: destination %d outside [0, %d)", dst, numObjects)
	}
	return nil
}

// segmentedCore is the engineCore of a segmented backend: one sealed
// per-slab core per time slab plus the planner. Slab cores are immutable
// after construction, so queries run fully in parallel like every other
// registry engine.
type segmentedCore struct {
	base       string
	slabs      []segSlab
	numObjects int
	numTicks   int

	// bidir routes point queries through the bidirectional planner
	// (planReachBidir); set only by the "bidir:*" backends, whose slab
	// cores are all reverseFrontierCore. Set/semantics queries keep the
	// forward planner either way.
	bidir bool
	// parallelism is the worker budget for large frontier sweeps
	// (Options.QueryParallelism); <= 1 keeps every sweep serial.
	parallelism int
}

func (c *segmentedCore) reach(ctx context.Context, q Query, acct *pagefile.Stats) (bool, int, error) {
	if c.bidir {
		return planReachBidir(ctx, c.slabs, c.numObjects, c.numTicks, q, c.parallelism, acct)
	}
	return planReach(ctx, c.slabs, c.numObjects, c.numTicks, q, c.parallelism, acct)
}

func (c *segmentedCore) reachSet(ctx context.Context, src ObjectID, iv Interval, acct *pagefile.Stats) ([]ObjectID, error) {
	objs, _, err := planSet(ctx, c.slabs, c.numObjects, c.numTicks, src, iv, c.parallelism, acct)
	return objs, err
}

func (c *segmentedCore) ioTotals() pagefile.Stats {
	var sum pagefile.Stats
	for _, s := range c.slabs {
		sum.Add(s.core.ioTotals())
	}
	return sum
}

func (c *segmentedCore) resetIO() {
	for _, s := range c.slabs {
		s.core.resetIO()
	}
}

func (c *segmentedCore) indexBytes() int64 {
	var sum int64
	for _, s := range c.slabs {
		sum += s.core.indexBytes()
	}
	return sum
}

func (c *segmentedCore) dropCache() {
	for _, s := range c.slabs {
		s.core.dropCache()
	}
}

func (c *segmentedCore) segmentStats() []SegmentStats {
	out := make([]SegmentStats, len(c.slabs))
	for i, s := range c.slabs {
		out[i] = SegmentStats{
			Span:       s.span,
			IO:         statsOf(s.core.ioTotals()),
			IndexBytes: s.core.indexBytes(),
		}
	}
	return out
}

// SegmentStats describes one time-slab segment of a segmented engine: its
// global tick span, the cumulative simulated I/O its segment has served,
// and its on-disk size. The per-segment counters make planner locality
// observable — a query must only ever charge the segments overlapping its
// interval. For a LiveEngine, DeltaEvents is the segment's pending
// delta-log depth (late/retracted contacts not yet compacted into the
// sealed index); zero for frozen segments.
type SegmentStats struct {
	Span        Interval
	IO          IOStats
	IndexBytes  int64
	DeltaEvents int
}

// Segmented is implemented by engines built from time-sliced segments
// (the "segmented:*" backends and LiveEngine). Callers obtain it by type
// assertion from an Engine.
type Segmented interface {
	// SegmentStats returns one entry per segment in ascending time order.
	SegmentStats() []SegmentStats
}

// segmentedEngine wraps the uniform engine with the Segmented surface.
type segmentedEngine struct {
	*engine
	seg *segmentedCore
}

func (e *segmentedEngine) SegmentStats() []SegmentStats { return e.seg.segmentStats() }

// segmentedBases lists the backends that support segmentation — the ones
// with multi-source frontier entry points. Each is registered a second
// time under "segmented:<name>".
var segmentedBases = []struct {
	name              string
	diskResident      bool
	needsTrajectories bool
}{
	{"reachgrid", true, true},
	{"reachgraph", true, false},
	{"reachgraph-mem", false, false},
	{"oracle", false, false},
}

func init() {
	for _, b := range segmentedBases {
		base := b.name
		register(BackendInfo{
			Name: "segmented:" + base,
			Description: fmt.Sprintf(
				"time-sliced %s segments with a frontier-carrying cross-segment planner", base),
			DiskResident:      b.diskResident,
			NeedsTrajectories: b.needsTrajectories,
		}, func(src Source, opts Options) (engineCore, error) {
			return buildSegmentedCore(base, src, opts)
		})
	}
}

// withSharedSlabPool returns opts with a buffer pool that every
// disk-resident slab of one segmented (or live) engine — or of one shard
// child — shares: the caller's Options.Pool when set, otherwise a pool
// private to the engine — either way all slabs draw on a single page
// budget, exactly like the serving configuration of unsegmented engines.
// The 64-page fallback mirrors the backends' own Params default.
func withSharedSlabPool(opts Options, diskResident bool) Options {
	if !diskResident || opts.Pool != nil {
		return opts
	}
	pages := opts.PoolPages
	if pages == 0 {
		pages = 64
	}
	if pages > 0 {
		opts.Pool = NewBufferPool(pages)
	}
	return opts
}

// buildSegmentedCore splits src into time slabs and builds one base-backend
// segment per slab. Disk-resident segments share one buffer pool: the
// caller's Options.Pool when set, otherwise a pool private to this engine —
// either way all slabs draw on a single page budget, exactly like the
// serving configuration of unsegmented engines.
func buildSegmentedCore(base string, src Source, opts Options) (*segmentedCore, error) {
	spec, ok := lookupSpec(base)
	if !ok {
		return nil, fmt.Errorf("%w %q (segmented base)", ErrUnknownBackend, base)
	}
	numObjects, numTicks := sourceDims(src)
	if numTicks == 0 {
		return nil, fmt.Errorf("streach: segmented %q: empty time domain", base)
	}
	layout := segment.NewLayout(opts.SegmentTicks, numTicks)
	slabOpts := withSharedSlabPool(opts, spec.info.DiskResident)
	core := &segmentedCore{
		base:        base,
		numObjects:  numObjects,
		numTicks:    numTicks,
		parallelism: opts.QueryParallelism,
	}
	for i := 0; i < layout.NumSlabs(); i++ {
		span := layout.Span(i)
		var slabSrc Source
		if spec.info.NeedsTrajectories {
			slabSrc = &Dataset{d: src.sourceDataset().d.Window(span.Lo, span.Hi)}
		} else {
			slabSrc = &ContactNetwork{net: src.sourceContacts().net.Window(span.Lo, span.Hi)}
		}
		sc, err := spec.open(slabSrc, slabOpts)
		if err != nil {
			return nil, fmt.Errorf("segment %v: %w", span, err)
		}
		fc, ok := sc.(frontierCore)
		if !ok {
			return nil, fmt.Errorf("streach: backend %q has no frontier entry points", base)
		}
		core.slabs = append(core.slabs, segSlab{span: span, core: fc})
	}
	return core, nil
}
