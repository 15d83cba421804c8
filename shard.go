// Sharded engines and the scatter-gather frontier planner.
//
// A sharded backend ("shard:<K>:<base>", or "shard:<K>:spatial:<base>" for
// the grid-cut partitioner) splits the object population into K shards
// (internal/shard) and opens one child engine of the base backend per shard
// over that shard's sub-network — every contact incident to at least one
// shard-owned object, cross-shard contacts duplicated into both endpoint
// shards. Each disk-resident child owns a private BufferPool (unless the
// caller supplies a shared Options.Pool) and, for segmented bases, its own
// slab chain, so shards are independent engines end to end.
//
// Queries run as a scatter-gather relaxation over exact per-shard arrival
// profiles. The coordinator keeps a global best-arrival table and a pending
// set of (object, arrival) improvements; each round it groups the pending
// objects by owning shard and scatters ONE expansion per shard — the
// child's native semantic profile over [earliest arrival, iv.Hi] with every
// pending object activating at its own arrival tick (SeedState.Start), run
// concurrently across shards with the bounded-worker pattern of
// parallelSweep — then gathers the per-shard profiles and exchanges only
// the boundary objects whose global arrival improved and whose owner is
// another shard. Correctness rests on the ownership
// invariant of the cut: shard s's sub-network contains every contact
// incident to an s-owned object, so one owner-side expansion from an
// object's best arrival covers everything reachable through that object —
// an improvement discovered by the owner itself needs no re-expansion
// (the discovering sweep already continued through it), and a foreign
// discovery needs exactly one hand-off to the owner. Arrivals only ever
// decrease and are bounded below by the interval start, so the relaxation
// terminates; because every recorded arrival is realized by a concatenation
// of within-shard propagation chains (sub-networks are subsets of the full
// network) and every optimal chain is covered link by link by owner
// expansions, the fixpoint equals the true earliest-arrival profile. With a
// destination early-exit the rounds additionally prune pending objects that
// cannot beat the destination's best-known arrival: an expansion seeded at
// tick t only produces arrivals >= t.
//
// Each expansion worker charges a private pagefile.Stats accountant; the
// gather step sums every worker's accountant into the query's — including
// failed workers, whose page reads already hit the store totals — so the
// engine invariant delta == total == pool stays exact under sharding.
// Single-shard coordinators ("shard:1:<base>") delegate point queries
// straight to their only child, preserving the allocation-free serial path.

package streach

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/shard"
	"streach/internal/visit"
)

// shardCore is the coordinator engineCore of a sharded backend: K child
// engines over the per-shard sub-networks plus the scatter-gather planner.
// Children are immutable after construction, so queries run fully in
// parallel like every other registry engine.
type shardCore struct {
	base     string
	assign   *shard.Assignment
	children []engineCore
	sems     []semCore
	// pools holds the per-shard private buffer pools ("each shard its own
	// BufferPool"); nil entries when the base is memory-resident or when a
	// caller-shared Options.Pool backs every child instead.
	pools      []*BufferPool
	numObjects int
	numTicks   int
	// parallelism is the scatter worker budget: Options.QueryParallelism
	// when positive, otherwise one worker per shard — sharded expansion is
	// concurrent by default, that is the point of the partition.
	parallelism int

	// Partition-quality counters, fixed at build time.
	crossRatio    float64
	crossContacts int
	partObjects   []int
	partContacts  []int

	// crossFrontier counts the boundary objects handed across the shard
	// cut by queries — the dynamic scatter-gather traffic metric. It is a
	// pointer so the per-query coordinator of a pinned live view adds into
	// the live engine's lasting counter.
	crossFrontier *atomic.Int64
}

// hopAgnostic is the semantic spec every scatter-gather expansion runs
// under: unbounded transfers, no hop tracking. Mid-interval shard hand-offs
// carry only arrival ticks; jointly-minimal (arrival, hops) labels do not
// compose across shards, so hop-tracking specs fall back to the oracle.
var hopAgnostic = semSpec{budget: queries.UnboundedHops}

func (c *shardCore) par() int {
	if c.parallelism > 0 {
		return c.parallelism
	}
	return c.assign.K
}

func (c *shardCore) reach(ctx context.Context, q Query, acct *pagefile.Stats) (bool, int, error) {
	if len(c.children) == 1 {
		// Single shard: the child sees the whole network; its native point
		// query (including a bidir base's planner) is the serial fast path.
		return c.children[0].reach(ctx, q, acct)
	}
	if err := validatePlanIDs(c.numObjects, q.Src, q.Dst); err != nil {
		return false, 0, err
	}
	iv := clampDomain(q.Interval, c.numTicks)
	if c.numTicks == 0 || iv.Len() == 0 {
		return false, 0, nil
	}
	if q.Src == q.Dst {
		return true, 0, nil
	}
	sc := semPool.Get()
	defer semPool.Put(sc)
	sc.seeds = append(sc.seeds[:0], queries.SeedState{Obj: q.Src})
	entries, n, err := planShardProfile(ctx, c.sems, c.assign, c.numObjects, c.numTicks,
		sc.entries[:0], sc.seeds, iv, hopAgnostic, q.Dst, c.par(), acct, c.crossFrontier)
	sc.entries = entries
	if err != nil {
		return false, n, err
	}
	_, ok := findEntry(entries, q.Dst)
	return ok, n, nil
}

func (c *shardCore) reachSet(ctx context.Context, src ObjectID, iv Interval, acct *pagefile.Stats) ([]ObjectID, error) {
	if len(c.children) == 1 {
		objs, err := c.children[0].reachSet(ctx, src, iv, acct)
		if err == nil || !errors.Is(err, errNoNativeSet) {
			return objs, err
		}
		// No native set primitive on the child: fall through to the
		// relaxation, which degenerates to one arrival sweep — far cheaper
		// than the engine's per-object point-query fallback.
	}
	if err := validatePlanIDs(c.numObjects, src, src); err != nil {
		return nil, err
	}
	sc := semPool.Get()
	defer semPool.Put(sc)
	sc.seeds = append(sc.seeds[:0], queries.SeedState{Obj: src})
	entries, _, err := planShardProfile(ctx, c.sems, c.assign, c.numObjects, c.numTicks,
		sc.entries[:0], sc.seeds, iv, hopAgnostic, queries.NoObject, c.par(), acct, c.crossFrontier)
	sc.entries = entries
	if err != nil {
		return nil, err
	}
	objs := make([]ObjectID, len(entries))
	for i, en := range entries {
		objs[i] = en.Obj
	}
	return objs, nil
}

func (c *shardCore) semSupports(spec semSpec) bool {
	if spec.tracksHops() {
		return false
	}
	for _, s := range c.sems {
		if !s.semSupports(spec) {
			return false
		}
	}
	return true
}

func (c *shardCore) semProfile(ctx context.Context, dst []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, earlyDst ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	if len(c.children) == 1 {
		return c.sems[0].semProfile(ctx, dst, seeds, iv, spec, earlyDst, acct)
	}
	return planShardProfile(ctx, c.sems, c.assign, c.numObjects, c.numTicks,
		dst, seeds, iv, spec, earlyDst, c.par(), acct, c.crossFrontier)
}

func (c *shardCore) ioTotals() pagefile.Stats {
	var sum pagefile.Stats
	for _, ch := range c.children {
		sum.Add(ch.ioTotals())
	}
	return sum
}

func (c *shardCore) resetIO() {
	for _, ch := range c.children {
		ch.resetIO()
	}
}

func (c *shardCore) indexBytes() int64 {
	var sum int64
	for _, ch := range c.children {
		sum += ch.indexBytes()
	}
	return sum
}

func (c *shardCore) dropCache() {
	for _, ch := range c.children {
		ch.dropCache()
	}
}

func (c *shardCore) shardStats() []ShardStats {
	out := make([]ShardStats, len(c.children))
	for s, ch := range c.children {
		out[s] = ShardStats{
			Shard:      s,
			Objects:    c.partObjects[s],
			Contacts:   c.partContacts[s],
			IndexBytes: ch.indexBytes(),
			IO:         statsOf(ch.ioTotals()),
		}
	}
	return out
}

// fillStats populates the sharding surface of an EngineStats snapshot.
func (c *shardCore) fillStats(st *EngineStats) {
	st.Shards = c.assign.K
	st.Partitioner = c.assign.Partitioner
	st.CrossShardRatio = c.crossRatio
	st.CrossShardFrontier = c.crossFrontier.Load()
	st.ShardDetails = c.shardStats()
	if !st.HasPool {
		// Per-shard private pools: report their summed counters so the
		// serving layer sees one pool surface either way.
		st.Pool, st.HasPool = sumPoolStats(c.pools)
	}
}

// sumPoolStats sums the counters of the non-nil pools; ok reports whether
// there was any.
func sumPoolStats(pools []*BufferPool) (sum PoolStats, ok bool) {
	for _, p := range pools {
		if p == nil {
			continue
		}
		ps := p.Stats()
		ok = true
		sum.Hits += ps.Hits
		sum.Misses += ps.Misses
		sum.Evictions += ps.Evictions
		sum.Resident += ps.Resident
		sum.Capacity += ps.Capacity
	}
	return sum, ok
}

// shardEngine wraps the uniform engine with the Sharded surface.
type shardEngine struct {
	*engine
	sh *shardCore
}

func (e *shardEngine) Stats() EngineStats {
	st := e.engine.Stats()
	e.sh.fillStats(&st)
	return st
}

func (e *shardEngine) ShardStats() []ShardStats { return e.sh.shardStats() }

// --- the scatter-gather relaxation planner ---

// shardPlanScratch is the pooled working state of one scatter-gather query:
// the global best-arrival table, the reached-object list, the pending and
// next-round hand-off buffers, and the task list of one round.
type shardPlanScratch struct {
	arrival visit.Ticks
	reached []ObjectID
	pend    []ObjectID
	next    []ObjectID
	tasks   []shardPlanTask
}

// shardPlanTask is one owner-side expansion: the pending objects
// pend[lo:hi], all owned by shard part with best arrival t.
type shardPlanTask struct {
	part   int
	t      Tick
	lo, hi int
}

var shardPlanPool = visit.NewPool(func() *shardPlanScratch { return new(shardPlanScratch) })

// shardTaskResult collects one expansion worker's output; the private
// accountant is summed into the query's after the join even on failure
// (the reads already hit the store totals).
type shardTaskResult struct {
	entries []queries.ProfileEntry
	n       int
	io      pagefile.Stats
	err     error
}

// planShardProfile is the scatter-gather relaxation over per-shard semantic
// evaluators; see the package comment for the algorithm and its exactness
// argument. parts[s] evaluates arrival profiles over shard s's sub-network;
// spec must be hop-agnostic (callers gate on semSupports). The profile is
// appended to dst sorted by object with hop counts normalized to -1; with a
// valid earlyDst it may be partial, but earlyDst's entry is exact. Every
// boundary hand-off increments crossFrontier.
func planShardProfile(ctx context.Context, parts []semCore, assign *shard.Assignment, numObjects, numTicks int,
	dst []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, earlyDst ObjectID,
	par int, acct *pagefile.Stats, crossFrontier *atomic.Int64) ([]queries.ProfileEntry, int, error) {

	iv = clampDomain(iv, numTicks)
	if numTicks == 0 || iv.Len() == 0 {
		return dst, 0, nil
	}
	ps := shardPlanPool.Get()
	defer shardPlanPool.Put(ps)
	ps.arrival.Reset(numObjects)
	ps.reached = ps.reached[:0]
	ps.pend = ps.pend[:0]
	for _, s := range seeds {
		if int(s.Obj) < 0 || int(s.Obj) >= numObjects {
			continue
		}
		if _, ok := ps.arrival.Get(int(s.Obj)); !ok {
			ps.arrival.Set(int(s.Obj), int32(iv.Lo))
			ps.reached = append(ps.reached, s.Obj)
			ps.pend = append(ps.pend, s.Obj)
		}
	}
	hasEarly := int(earlyDst) >= 0 && int(earlyDst) < numObjects
	var cross int64
	defer func() {
		if cross > 0 && crossFrontier != nil {
			crossFrontier.Add(cross)
		}
	}()
	expanded := 0
	for len(ps.pend) > 0 {
		if err := ctx.Err(); err != nil {
			return dst, expanded, err
		}
		// Group the pending hand-offs into one task per owner — every
		// pending object rides the same owner-side sweep, activating at its
		// own best-known arrival — pruning objects that can no longer
		// improve the destination. Sorting by (owner, arrival) makes each
		// owner's run contiguous with its earliest arrival first, which
		// becomes the task's sweep start.
		sort.Slice(ps.pend, func(i, j int) bool {
			a, b := ps.pend[i], ps.pend[j]
			oa, ob := assign.Owner(a), assign.Owner(b)
			if oa != ob {
				return oa < ob
			}
			ta, _ := ps.arrival.Get(int(a))
			tb, _ := ps.arrival.Get(int(b))
			if ta != tb {
				return ta < tb
			}
			return a < b
		})
		bestDst := int32(-1)
		if hasEarly {
			if v, ok := ps.arrival.Get(int(earlyDst)); ok {
				bestDst = v
			}
		}
		ps.tasks = ps.tasks[:0]
		w := 0
		for i := 0; i < len(ps.pend); i++ {
			o := ps.pend[i]
			if i > 0 && o == ps.pend[i-1] {
				continue // improved twice before expansion: expand once
			}
			t, _ := ps.arrival.Get(int(o))
			if bestDst >= 0 && t >= bestDst {
				continue // cannot beat the destination's known arrival
			}
			owner := assign.Owner(o)
			if n := len(ps.tasks); n > 0 && ps.tasks[n-1].part == owner {
				ps.pend[w] = o
				w++
				ps.tasks[n-1].hi = w
				continue
			}
			ps.pend[w] = o
			w++
			ps.tasks = append(ps.tasks, shardPlanTask{part: owner, t: Tick(t), lo: w - 1, hi: w})
		}
		ps.pend = ps.pend[:w]
		if len(ps.tasks) == 0 {
			break
		}
		// Scatter: expand every task on its owner, concurrently up to the
		// worker budget; workers charge private accountants.
		results := make([]shardTaskResult, len(ps.tasks))
		workers := par
		if workers > len(ps.tasks) {
			workers = len(ps.tasks)
		}
		if workers <= 1 {
			for i := range ps.tasks {
				runShardTask(ctx, parts, ps, &ps.tasks[i], &results[i], iv, spec, earlyDst)
			}
		} else {
			var wg sync.WaitGroup
			for wk := 0; wk < workers; wk++ {
				wg.Add(1)
				go func(wk int) {
					defer wg.Done()
					for i := wk; i < len(ps.tasks); i += workers {
						runShardTask(ctx, parts, ps, &ps.tasks[i], &results[i], iv, spec, earlyDst)
					}
				}(wk)
			}
			wg.Wait()
		}
		// Gather: merge the per-shard profiles into the global arrival
		// table; only improvements owned by a different shard than the one
		// that discovered them re-enter the pending set (the discovering
		// sweep already expanded owner-local improvements exhaustively).
		ps.next = ps.next[:0]
		var firstErr error
		for i := range ps.tasks {
			r := &results[i]
			expanded += r.n
			if acct != nil {
				acct.Add(r.io)
			}
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			if firstErr != nil {
				continue
			}
			for _, en := range r.entries {
				cur, ok := ps.arrival.Get(int(en.Obj))
				if ok && int32(en.Arrival) >= cur {
					continue
				}
				ps.arrival.Set(int(en.Obj), int32(en.Arrival))
				if !ok {
					ps.reached = append(ps.reached, en.Obj)
				}
				if assign.Owner(en.Obj) != ps.tasks[i].part {
					ps.next = append(ps.next, en.Obj)
					cross++
				}
			}
		}
		if firstErr != nil {
			return dst, expanded, firstErr
		}
		ps.pend, ps.next = ps.next, ps.pend
	}
	list := sortDedupObjects(ps.reached)
	for _, o := range list {
		arr, _ := ps.arrival.Get(int(o))
		dst = append(dst, queries.ProfileEntry{Obj: o, Hops: -1, Arrival: Tick(arr)})
	}
	return dst, expanded, nil
}

// runShardTask evaluates one owner-side expansion: the task's pending
// objects seed the owner's semantic profile over [earliest arrival, iv.Hi],
// each seed activating at its own best-known arrival tick (SeedState.Start),
// so the whole round costs one sweep per shard. Child profiles are
// global-tick (children index the full time domain), so no re-basing
// happens on gather. The arrival table is read-only during the scatter
// phase; gather mutates it only after the workers join.
func runShardTask(ctx context.Context, parts []semCore, ps *shardPlanScratch, task *shardPlanTask, r *shardTaskResult, iv Interval, spec semSpec, earlyDst ObjectID) {
	seeds := make([]queries.SeedState, 0, task.hi-task.lo)
	for _, o := range ps.pend[task.lo:task.hi] {
		t, _ := ps.arrival.Get(int(o))
		seeds = append(seeds, queries.SeedState{Obj: o, Start: Tick(t)})
	}
	r.entries, r.n, r.err = parts[task.part].semProfile(ctx, nil, seeds,
		Interval{Lo: task.t, Hi: iv.Hi}, spec, earlyDst, &r.io)
}

// --- registration ---

// shardName returns the canonical registry name of a sharded backend: the
// hash partitioner is the unnamed default, spatial is spelled out.
func shardName(k int, partitioner, base string) string {
	if partitioner == "spatial" {
		return fmt.Sprintf("shard:%d:spatial:%s", k, base)
	}
	return fmt.Sprintf("shard:%d:%s", k, base)
}

// parseShardName splits "shard:<K>[:hash|:spatial]:<base>"; ok is false for
// anything else (including nested shard bases).
func parseShardName(name string) (k int, partitioner, base string, ok bool) {
	rest, found := strings.CutPrefix(name, "shard:")
	if !found {
		return 0, "", "", false
	}
	kStr, rest, found := strings.Cut(rest, ":")
	if !found {
		return 0, "", "", false
	}
	k, err := strconv.Atoi(kStr)
	if err != nil || k < 1 {
		return 0, "", "", false
	}
	partitioner = "hash"
	if p, after, found := strings.Cut(rest, ":"); found && (p == "hash" || p == "spatial") {
		partitioner, rest = p, after
	}
	if rest == "" || strings.HasPrefix(rest, "shard:") {
		return 0, "", "", false
	}
	return k, partitioner, rest, true
}

// shardSpec synthesizes the registry entry of a sharded backend name,
// resolving the base against the static registry — any shard count and any
// contact-sourced base compose dynamically, not just the pre-registered
// points. ownPool marks the spec so Open leaves pool materialization to
// buildShardCore (per-shard private pools unless the caller shares one).
func shardSpec(name string) (backendSpec, bool) {
	k, partitioner, base, ok := parseShardName(name)
	if !ok {
		return backendSpec{}, false
	}
	base = strings.ToLower(strings.TrimSpace(base))
	if alias, ok := aliases[base]; ok {
		base = alias
	}
	baseSpec, ok := registry[base]
	if !ok {
		return backendSpec{}, false
	}
	canonical := shardName(k, partitioner, base)
	return backendSpec{
		info: BackendInfo{
			Name: canonical,
			Description: fmt.Sprintf("%d-way %s-partitioned %s shards with a scatter-gather frontier planner",
				k, partitioner, base),
			DiskResident:      baseSpec.info.DiskResident,
			NeedsTrajectories: partitioner == "spatial",
		},
		ownPool: true,
		open: func(src Source, opts Options) (engineCore, error) {
			return buildShardCore(k, partitioner, base, src, opts)
		},
	}, true
}

// shardPoints are the pre-registered shard configurations over the flagship
// disk backend; every other (K, partitioner, base) combination resolves
// dynamically through lookupSpec.
var shardPoints = []struct {
	k           int
	partitioner string
}{
	{1, "hash"}, {2, "hash"}, {4, "hash"},
	{1, "spatial"}, {2, "spatial"}, {4, "spatial"},
}

func init() {
	for _, p := range shardPoints {
		name := shardName(p.k, p.partitioner, "reachgraph")
		registry[name] = backendSpec{
			info: BackendInfo{
				Name: name,
				Description: fmt.Sprintf("%d-way %s-partitioned reachgraph shards with a scatter-gather frontier planner",
					p.k, p.partitioner),
				DiskResident:      true,
				NeedsTrajectories: p.partitioner == "spatial",
			},
			ownPool: true,
			open: func(src Source, opts Options) (engineCore, error) {
				return buildShardCore(p.k, p.partitioner, "reachgraph", src, opts)
			},
		}
	}
}

// buildShardCore partitions the source, cuts the contact network and opens
// one base-backend child per shard. Disk-resident children each get a
// private buffer pool of the configured page budget unless the caller
// supplied a shared Options.Pool; segmented bases then window their own
// slab chains inside each shard.
func buildShardCore(k int, partitioner, base string, src Source, opts Options) (engineCore, error) {
	baseSpec, ok := registry[base]
	if !ok {
		return nil, fmt.Errorf("%w %q (shard base)", ErrUnknownBackend, base)
	}
	if baseSpec.info.NeedsTrajectories {
		return nil, fmt.Errorf("streach: shard base %q indexes trajectories; shard children build from per-shard contact networks", base)
	}
	numObjects, numTicks := sourceDims(src)
	if numTicks == 0 {
		return nil, fmt.Errorf("streach: shard %q: empty time domain", base)
	}
	var assign *shard.Assignment
	var err error
	if partitioner == "spatial" {
		ds := src.sourceDataset()
		if ds == nil {
			return nil, fmt.Errorf("streach: spatial partitioner: %w", ErrNeedsTrajectories)
		}
		assign, err = shard.Spatial(ds.d, k)
	} else {
		assign, err = shard.Hash(numObjects, k)
	}
	if err != nil {
		return nil, err
	}
	split := shard.Cut(src.sourceContacts().net, assign)
	core := &shardCore{
		base:          base,
		assign:        assign,
		numObjects:    numObjects,
		numTicks:      numTicks,
		parallelism:   opts.QueryParallelism,
		crossRatio:    split.CrossRatio(),
		crossContacts: split.CrossContacts,
		pools:         make([]*BufferPool, k),
		crossFrontier: new(atomic.Int64),
		partObjects:   make([]int, k),
		partContacts:  make([]int, k),
	}
	for s := 0; s < k; s++ {
		core.partObjects[s] = assign.Objects(s)
		core.partContacts[s] = len(split.Parts[s].Contacts)
		childOpts := withSharedSlabPool(opts, baseSpec.info.DiskResident)
		if opts.Pool == nil {
			core.pools[s] = childOpts.Pool
		}
		child, err := baseSpec.open(&ContactNetwork{net: split.Parts[s]}, childOpts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		sem, ok := child.(semCore)
		if !ok || !sem.semSupports(hopAgnostic) {
			return nil, fmt.Errorf("streach: backend %q has no scatter-gather entry points", base)
		}
		core.children = append(core.children, child)
		core.sems = append(core.sems, sem)
	}
	return core, nil
}
