// The unified engine API: every query evaluator in the package — the two
// paper indexes, the baselines of §6 and the ground-truth oracle — is
// obtainable from a backend registry under a stable name and satisfies one
// Engine interface. Engines answer queries with typed Results carrying the
// per-query I/O delta, wall latency and expansion counters, replacing the
// mutable IOStats()/ResetStats() measurement pattern for serving-style use.

package streach

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"streach/internal/dn"
	"streach/internal/grail"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/reachgraph"
	"streach/internal/reachgrid"
	"streach/internal/trajectory"
)

// Engine is the uniform query interface every registered backend satisfies.
// Engines are safe for concurrent use and evaluate read-only queries fully
// in parallel: every query threads its own I/O accountant through the
// traversal, and the shared buffer pool uses page-sharded latches with
// atomic counters, so no query ever serializes behind another. Per-query
// I/O deltas stay exact under concurrency (each query models its own disk
// arm); the deltas of successfully evaluated queries sum to the engine's
// cumulative IOTotals.
type Engine interface {
	// Name returns the registry name the engine was opened under.
	Name() string
	// Reachable answers the reachability query q. The context is checked
	// before evaluation begins and observed inside the expansion loops of
	// the traversal backends, so cancelling it aborts a long-running
	// evaluation promptly with ctx.Err().
	Reachable(ctx context.Context, q Query) (Result, error)
	// ReachableSet returns every object reachable from src during iv
	// (including src when the interval overlaps the time domain). The
	// returned slice is sorted ascending and free of duplicates for every
	// backend. Backends without a native set primitive answer with one
	// point query per candidate object, honouring ctx between candidates.
	ReachableSet(ctx context.Context, src ObjectID, iv Interval) (SetResult, error)
	// EarliestArrival returns the first tick in iv at which dst holds an
	// item initiated by src at the interval start — the |T'p| of Theorems
	// 4.1/5.4 surfaced as a query. Backends without a native arrival
	// evaluation fall back to the brute-force oracle over the engine's
	// source contacts (ArrivalResult.Native reports which path answered).
	EarliestArrival(ctx context.Context, src, dst ObjectID, iv Interval) (ArrivalResult, error)
	// TopKReachable returns the k objects (src excluded) reachable from
	// src during iv that receive the item with the highest decayed weight
	// decay^transfers, ranked by weight, then arrival tick, then ID.
	// Backends that cannot track transfer counts natively fall back to the
	// oracle (TopKResult.Native).
	TopKReachable(ctx context.Context, src ObjectID, iv Interval, k int, decay float64) (TopKResult, error)
	// IndexBytes returns the on-disk size of the engine's index; zero for
	// memory-resident backends.
	IndexBytes() int64
	// Stats returns a consistent point-in-time snapshot of the engine's
	// observable state — cumulative I/O, buffer-pool counters, index
	// footprint, time-domain dimensions and segment counts — the one struct
	// a serving layer reads instead of poking individual accessors. The
	// snapshot is safe to take while queries run; all counters are atomic.
	Stats() EngineStats
	// IOTotals returns the engine's cumulative simulated disk traffic
	// (zero for memory-resident backends). Totals are concurrency-safe;
	// the IO deltas of successfully evaluated queries sum to them exactly
	// (queries that error or are cancelled mid-evaluation charge the
	// totals but return no delta).
	IOTotals() IOStats
}

// Result is the typed answer to one reachability query.
type Result struct {
	// Query echoes the evaluated query.
	Query Query
	// Reachable is the boolean answer.
	Reachable bool
	// IO is the simulated disk traffic this query alone charged (zero for
	// memory-resident backends).
	IO IOStats
	// Latency is the wall time spent evaluating the query.
	Latency time.Duration
	// Expanded counts the evaluation frontier: objects infected by
	// propagation-style backends, vertex visits by graph traversals.
	Expanded int
	// Evaluated reports whether the query ran; EvaluateBatch leaves it
	// false for queries skipped after cancellation or a failure.
	Evaluated bool
	// Arrival is the earliest tick at which Dst holds the item. It is
	// computed only when Query.Semantics routes the query through the
	// semantics layer; -1 otherwise, and for negative queries.
	Arrival Tick
	// Hops is the minimal number of inter-object transfers among delivery
	// chains arriving by the Arrival tick, when the evaluator tracks
	// transfer counts (hop-bounded queries on hop-counting backends); -1
	// otherwise. Probabilistic queries instead report the full-interval
	// minimum — the transfer count of the best path, which may arrive
	// after the Arrival tick.
	Hops int
	// Native reports whether the semantics layer answered natively in the
	// backend's traversal core; false means the oracle fallback evaluated
	// the query. Plain boolean queries are always native.
	Native bool
	// Prob is the delivery probability under Query.Semantics.Prob: the
	// best single-path probability p^Hops for exact evaluations, or the
	// sampled two-terminal reliability estimate when MCTrials requested the
	// Monte-Carlo fallback. Zero for non-probabilistic queries and for
	// unreachable destinations.
	Prob float64
}

// SetResult is the typed answer to one reachable-set query.
type SetResult struct {
	// Src and Interval echo the evaluated query.
	Src      ObjectID
	Interval Interval
	// Objects is the reachable set, src included (empty when the interval
	// misses the time domain), sorted ascending and deduplicated.
	Objects []ObjectID
	// IO, Latency mirror Result.
	IO      IOStats
	Latency time.Duration
	// Expanded is the size of the reachable set.
	Expanded int
}

// Errors returned by Open.
var (
	// ErrUnknownBackend reports a name absent from the registry.
	ErrUnknownBackend = errors.New("streach: unknown backend")
	// ErrNeedsTrajectories reports a trajectory-indexing backend opened
	// from a bare contact network.
	ErrNeedsTrajectories = errors.New("streach: backend indexes trajectories; open it from a *Dataset")
)

// Source is a data source an engine can be opened from: a *Dataset (full
// trajectory archive) or a *ContactNetwork (pre-extracted contacts, e.g. a
// ContactStream snapshot). Graph-based backends accept either; ReachGrid
// and SPJ index raw trajectories and need a *Dataset.
type Source interface {
	sourceDataset() *Dataset
	sourceContacts() *ContactNetwork
}

func (ds *Dataset) sourceDataset() *Dataset         { return ds }
func (ds *Dataset) sourceContacts() *ContactNetwork { return ds.Contacts() }

func (cn *ContactNetwork) sourceDataset() *Dataset         { return nil }
func (cn *ContactNetwork) sourceContacts() *ContactNetwork { return cn }

// BufferPool is a concurrency-safe LRU page cache for the simulated disk.
// One pool can back several engines over the same dataset (pages are keyed
// by store identity), giving all readers a common page budget; its global
// hit/miss/eviction counters are atomic.
type BufferPool = pagefile.BufferPool

// PoolStats is a snapshot of a BufferPool's global counters.
type PoolStats = pagefile.PoolStats

// NewBufferPool returns a pool holding at most pages cached pages, for
// sharing across the engines of one dataset via Options.Pool.
func NewBufferPool(pages int) *BufferPool { return pagefile.NewBufferPool(pages) }

// Options configures Open. The zero value selects the paper's empirical
// optima for every backend; fields irrelevant to the opened backend are
// ignored.
type Options struct {
	// PoolPages sizes the private buffer pool of the simulated disk
	// (disk-resident backends). Ignored when Pool is set.
	PoolPages int
	// Pool, when non-nil, is a buffer pool shared across engines: every
	// disk-resident backend opened with the same Pool draws on one common
	// page budget (the serving configuration — one cache per dataset, many
	// concurrent readers).
	Pool *BufferPool

	// CellSize is the ReachGrid spatial resolution RS in metres
	// (reachgrid, spj).
	CellSize float64
	// BucketTicks is the ReachGrid temporal resolution RT in instants
	// (reachgrid, spj).
	BucketTicks int

	// PartitionDepth is the ReachGraph partition depth dp.
	PartitionDepth int
	// Resolutions lists the ReachGraph long-edge levels (ascending powers
	// of two); nil selects {2, 4, 8, 16, 32}.
	Resolutions []int

	// GrailPasses is the GRAIL label count d; zero selects 5.
	GrailPasses int
	// Seed seeds GRAIL's randomized labelling.
	Seed int64

	// SegmentTicks is the time-slab width of the segmented backends
	// ("segmented:<name>") and of LiveEngine: the time axis is split into
	// slabs of this many instants, each carrying its own index segment.
	// Zero selects segment.DefaultWidth (128). Ignored by unsegmented
	// backends.
	SegmentTicks int

	// IngestHorizon bounds how far past the current frontier a LiveEngine
	// contact event may land (LiveEngine.Ingest): an add at tick t is
	// rejected with ErrIngestHorizon when t >= frontier + IngestHorizon.
	// Zero selects 4 slab widths; negative disables the bound. Ignored by
	// frozen backends.
	IngestHorizon int

	// CompactEvents is the LiveEngine delta-log compaction threshold: when
	// an ingest leaves a sealed segment with at least this many pending
	// late/retraction events, the segment is re-sealed (compacted) before
	// Ingest returns. Zero disables the policy — dirty segments then only
	// compact on an explicit LiveEngine.Compact call. Ignored by frozen
	// backends.
	CompactEvents int

	// QueryParallelism is the intra-query worker budget of the segmented
	// planners ("segmented:*", "bidir:*" and LiveEngine): when a carried
	// frontier outgrows an internal threshold, its next sweep is
	// partitioned across up to this many workers, each charging a private
	// I/O accountant that is summed into the query's on merge. Zero or one
	// keeps every sweep serial (the allocation-free steady-state path);
	// values above one only ever engage on large frontiers. Ignored by
	// unsegmented backends.
	QueryParallelism int

	// PageFormat selects the on-page record layout of the disk-resident
	// indexes (reachgrid, spj, reachgraph and their segmented variants).
	// Zero selects the default PageFormatVarint; PageFormatFixed rebuilds
	// the v1 fixed-width layout. Both formats answer queries identically —
	// the varint-delta layout just occupies fewer pages.
	PageFormat PageFormat
}

// PageFormat identifies an on-page record layout; see Options.PageFormat.
type PageFormat = pagefile.Format

// The available page formats.
const (
	// PageFormatFixed is the v1 layout: fixed-width 32/64-bit fields.
	PageFormatFixed = pagefile.FormatFixed
	// PageFormatVarint is the v2 layout (the default): varint counts and
	// ticks, delta-compressed ID postings, prediction-XOR'd positions.
	PageFormatVarint = pagefile.FormatVarint
)

// BackendInfo describes one registered backend.
type BackendInfo struct {
	// Name is the registry name accepted by Open.
	Name string
	// Description is a one-line summary.
	Description string
	// DiskResident reports whether queries charge simulated disk I/O.
	DiskResident bool
	// NeedsTrajectories reports whether Open requires a *Dataset source.
	NeedsTrajectories bool
}

// backendSpec is a registry entry.
type backendSpec struct {
	info BackendInfo
	open func(src Source, opts Options) (engineCore, error)
	// ownPool marks backends that manage buffer pools themselves (the
	// shard coordinators, which give each disk-resident child a private
	// pool unless the caller shares one); Open then skips the usual
	// pool materialization.
	ownPool bool
}

// defaultResolutions are the paper's optimal long-edge levels (§6.2.1.4).
func defaultResolutions(res []int) []int {
	if res == nil {
		return []int{2, 4, 8, 16, 32}
	}
	return res
}

func grailPasses(opts Options) int {
	if opts.GrailPasses <= 0 {
		return 5
	}
	return opts.GrailPasses
}

// registry holds every backend under its canonical name; aliases maps
// accepted alternate spellings onto canonical names.
var (
	registry = map[string]backendSpec{}
	aliases  = map[string]string{
		"reachgraph-bmbfs": "reachgraph",
		"grail-disk":       "grail",
	}
)

func register(info BackendInfo, open func(Source, Options) (engineCore, error)) {
	registry[info.Name] = backendSpec{info: info, open: open}
}

func init() {
	register(BackendInfo{
		Name:              "reachgrid",
		Description:       "spatiotemporal grid with guided on-the-fly expansion (§4)",
		DiskResident:      true,
		NeedsTrajectories: true,
	}, func(src Source, opts Options) (engineCore, error) {
		ix, err := buildGridIndex(src, opts)
		if err != nil {
			return nil, err
		}
		return gridCore{ix}, nil
	})
	register(BackendInfo{
		Name:              "spj",
		Description:       "naive spatiotemporal-join pipeline over the ReachGrid layout (§6.1.2)",
		DiskResident:      true,
		NeedsTrajectories: true,
	}, func(src Source, opts Options) (engineCore, error) {
		ix, err := buildGridIndex(src, opts)
		if err != nil {
			return nil, err
		}
		return spjCore{ix}, nil
	})
	for _, s := range []Strategy{BMBFS, BBFS, EBFS, EDFS} {
		name := "reachgraph"
		if s != BMBFS {
			name += "-" + strings.ToLower(strings.ReplaceAll(s.String(), "-", ""))
		}
		strat := s
		register(BackendInfo{
			Name:         name,
			Description:  fmt.Sprintf("disk-partitioned contact-network DAG, %s traversal (§5)", strat),
			DiskResident: true,
		}, func(src Source, opts Options) (engineCore, error) {
			ix, err := reachgraph.Build(dn.Build(src.sourceContacts().net), reachgraph.Params{
				PartitionDepth: opts.PartitionDepth,
				Resolutions:    opts.Resolutions,
				PoolPages:      opts.PoolPages,
				Pool:           opts.Pool,
				Format:         opts.PageFormat,
			})
			if err != nil {
				return nil, err
			}
			return graphCore{ix: ix, strategy: strat}, nil
		})
	}
	register(BackendInfo{
		Name:        "reachgraph-mem",
		Description: "memory-resident ReachGraph, BM-BFS traversal (§6.4)",
	}, func(src Source, opts Options) (engineCore, error) {
		m, err := reachgraph.NewMem(dn.Build(src.sourceContacts().net), defaultResolutions(opts.Resolutions))
		if err != nil {
			return nil, err
		}
		return graphMemCore{m: m}, nil
	})
	register(BackendInfo{
		Name:         "grail",
		Description:  "GRAIL interval labelling, disk-resident adaptation (§6.4)",
		DiskResident: true,
	}, func(src Source, opts Options) (engineCore, error) {
		dk, err := grail.NewDisk(dn.Build(src.sourceContacts().net), grailPasses(opts), opts.Seed, opts.PoolPages, opts.Pool)
		if err != nil {
			return nil, err
		}
		return grailDiskCore{dk}, nil
	})
	register(BackendInfo{
		Name:        "grail-mem",
		Description: "GRAIL interval labelling, memory-resident (§6.4)",
	}, func(src Source, opts Options) (engineCore, error) {
		m, err := grail.NewMem(dn.Build(src.sourceContacts().net), grailPasses(opts), opts.Seed)
		if err != nil {
			return nil, err
		}
		return grailMemCore{m: m}, nil
	})
	register(BackendInfo{
		Name:        "oracle",
		Description: "brute-force propagation simulation, the ground truth (§3.2)",
	}, func(src Source, opts Options) (engineCore, error) {
		return oracleCore{o: queries.NewOracle(src.sourceContacts().net)}, nil
	})
}

func buildGridIndex(src Source, opts Options) (*reachgrid.Index, error) {
	return reachgrid.Build(src.sourceDataset().d, reachgrid.Params{
		CellSize:    opts.CellSize,
		BucketTicks: opts.BucketTicks,
		PoolPages:   opts.PoolPages,
		Pool:        opts.Pool,
		Format:      opts.PageFormat,
	})
}

// Backends lists the registered backend names in sorted order.
func Backends() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BackendInfos describes every registered backend, sorted by name.
func BackendInfos() []BackendInfo {
	infos := make([]BackendInfo, 0, len(registry))
	for _, name := range Backends() {
		infos = append(infos, registry[name].info)
	}
	return infos
}

// LookupBackend resolves a backend name or registered alias to its
// BackendInfo, reporting whether Open would accept the name.
func LookupBackend(name string) (BackendInfo, bool) {
	spec, ok := lookupSpec(name)
	return spec.info, ok
}

func lookupSpec(name string) (backendSpec, bool) {
	canonical := strings.ToLower(strings.TrimSpace(name))
	if alias, ok := aliases[canonical]; ok {
		canonical = alias
	}
	if spec, ok := registry[canonical]; ok {
		return spec, ok
	}
	// "shard:<K>[:partitioner]:<base>" and "uncertain:<base>" names compose
	// dynamically: any shard count or uncertain wrapper over any registered
	// contact-sourced base resolves even without a pre-registered entry.
	if spec, ok := shardSpec(canonical); ok {
		return spec, ok
	}
	return uncertainSpec(canonical)
}

// Open builds the named backend over src and returns it as an Engine.
// Backend selection is by registry name (see Backends); src is a *Dataset
// or, for graph-based backends, optionally a pre-extracted *ContactNetwork
// such as a ContactStream snapshot.
func Open(name string, src Source, opts Options) (Engine, error) {
	spec, ok := lookupSpec(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (available: %s)",
			ErrUnknownBackend, name, strings.Join(Backends(), ", "))
	}
	if src == nil {
		return nil, fmt.Errorf("streach: open %q: nil source", spec.info.Name)
	}
	if spec.info.NeedsTrajectories && src.sourceDataset() == nil {
		return nil, fmt.Errorf("open %q: %w", spec.info.Name, ErrNeedsTrajectories)
	}
	// Materialize the buffer pool at the Open level so the engine can
	// snapshot its counters (Engine.Stats): disk-resident backends that
	// would otherwise build a private pool get the same 64-page default,
	// now visible to the engine wrapper. Backends that manage their own
	// pools (shard coordinators) are left alone — a pool materialized here
	// would force all shards onto one budget.
	if !spec.ownPool {
		opts = withSharedSlabPool(opts, spec.info.DiskResident)
	}
	core, err := spec.open(src, opts)
	if err != nil {
		return nil, fmt.Errorf("streach: open %q: %w", spec.info.Name, err)
	}
	// Engines start with zeroed counters and a cold buffer pool:
	// construction traffic is not query traffic. With a shared pool only
	// this engine's pages are evicted.
	core.resetIO()
	core.dropCache()
	numObjects, numTicks := sourceDims(src)
	eng := &engine{
		name:       spec.info.Name,
		core:       core,
		numObjects: numObjects,
		numTicks:   numTicks,
		src:        src,
		pool:       opts.Pool,
	}
	if sc, ok := core.(*segmentedCore); ok {
		// Segmented engines additionally expose per-segment statistics
		// (the Segmented interface).
		return &segmentedEngine{engine: eng, seg: sc}, nil
	}
	if sh, ok := core.(*shardCore); ok {
		// Shard coordinators additionally expose per-shard statistics
		// (the Sharded interface).
		return &shardEngine{engine: eng, sh: sh}, nil
	}
	return eng, nil
}

func sourceDims(src Source) (numObjects, numTicks int) {
	if ds := src.sourceDataset(); ds != nil {
		return ds.NumObjects(), ds.NumTicks()
	}
	cn := src.sourceContacts()
	return cn.NumObjects(), cn.NumTicks()
}

// engineCore is the minimal backend surface the uniform engine wraps.
// Implementations must be safe for concurrent calls: all traversal state is
// per-call and page reads are charged to the caller's accountant.
type engineCore interface {
	// reach answers q, returning the expansion counter alongside and
	// charging page reads to acct. ctx is observed inside the expansion
	// loops of the traversal backends.
	reach(ctx context.Context, q Query, acct *pagefile.Stats) (ok bool, expanded int, err error)
	// reachSet returns the native reachable set (any order, duplicates
	// allowed — the engine wrapper normalizes), or errNoNativeSet when
	// the backend has no set primitive.
	reachSet(ctx context.Context, src ObjectID, iv Interval, acct *pagefile.Stats) ([]ObjectID, error)
	// ioTotals snapshots the cumulative I/O counters; zero for
	// memory-resident backends.
	ioTotals() pagefile.Stats
	// resetIO zeroes the cumulative counters; no-op for memory-resident
	// backends.
	resetIO()
	// indexBytes is the simulated on-disk index size.
	indexBytes() int64
	// dropCache evicts the engine's pages from the buffer pool; no-op for
	// memory-resident backends.
	dropCache()
}

// errNoNativeSet makes the engine fall back to per-object point queries.
var errNoNativeSet = errors.New("streach: backend has no native set primitive")

// sortDedupObjects is the normalization every ReachableSet answer goes
// through, making set results identical across backends.
func sortDedupObjects(objs []ObjectID) []ObjectID {
	return trajectory.SortDedupObjects(objs)
}

// engine adapts an engineCore to the Engine interface, measuring each query
// through its own I/O accountant. There is no engine-level lock: cores are
// concurrency-safe and queries run fully in parallel.
type engine struct {
	name string
	core engineCore

	numObjects int
	numTicks   int

	// src is retained for the semantics oracle fallback: backends without
	// a native implementation of a requested query semantics answer
	// through a brute-force oracle over the source contacts, built lazily
	// on first use (fb is never built for backends that evaluate every
	// semantics natively).
	src    Source
	fbOnce sync.Once
	fb     *queries.Oracle

	// pool is the buffer pool the engine's disk-resident index draws on
	// (the caller's shared Options.Pool or the private pool Open
	// materialized); nil for memory-resident backends.
	pool *BufferPool
}

func (e *engine) Name() string { return e.name }

func (e *engine) IndexBytes() int64 { return e.core.indexBytes() }

func (e *engine) IOTotals() IOStats {
	return statsOf(e.core.ioTotals())
}

// acctPool recycles per-query I/O accountants: the accountant's address
// escapes into the engineCore interface call, so a stack local would cost
// one heap allocation per query — the only one left on the memory
// backends' hot path.
var acctPool = sync.Pool{New: func() any { return new(pagefile.Stats) }}

func (e *engine) Reachable(ctx context.Context, q Query) (Result, error) {
	// A query that queued behind slow ones must not start evaluating after
	// its context was cancelled.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if q.Semantics.Active() {
		return e.reachableSem(ctx, q)
	}
	acct := acctPool.Get().(*pagefile.Stats)
	defer acctPool.Put(acct)
	acct.Reset()
	start := time.Now()
	ok, expanded, err := e.core.reach(ctx, q, acct)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Query:     q,
		Reachable: ok,
		IO:        statsOf(*acct),
		Latency:   time.Since(start),
		Expanded:  expanded,
		Evaluated: true,
		Arrival:   -1,
		Hops:      -1,
		Native:    true,
	}, nil
}

func (e *engine) ReachableSet(ctx context.Context, src ObjectID, iv Interval) (SetResult, error) {
	if err := ctx.Err(); err != nil {
		return SetResult{}, err
	}
	acct := acctPool.Get().(*pagefile.Stats)
	defer acctPool.Put(acct)
	acct.Reset()
	start := time.Now()
	objs, err := e.core.reachSet(ctx, src, iv, acct)
	if errors.Is(err, errNoNativeSet) {
		objs, err = e.setViaPointQueries(ctx, src, iv, acct)
	}
	if err != nil {
		return SetResult{}, err
	}
	objs = sortDedupObjects(objs)
	return SetResult{
		Src:      src,
		Interval: iv,
		Objects:  objs,
		IO:       statsOf(*acct),
		Latency:  time.Since(start),
		Expanded: len(objs),
	}, nil
}

// setViaPointQueries answers a reachable-set query with one point query per
// candidate destination, mirroring the semantics of the native set
// primitives: src is included exactly when the interval overlaps the time
// domain. All point queries charge the one accountant of the set query.
func (e *engine) setViaPointQueries(ctx context.Context, src ObjectID, iv Interval, acct *pagefile.Stats) ([]ObjectID, error) {
	if int(src) < 0 || int(src) >= e.numObjects {
		return nil, fmt.Errorf("streach: source %d outside [0, %d)", src, e.numObjects)
	}
	if iv.Intersect(Interval{Lo: 0, Hi: Tick(e.numTicks - 1)}).Len() == 0 {
		return nil, nil
	}
	out := []ObjectID{src}
	for o := 0; o < e.numObjects; o++ {
		if ObjectID(o) == src {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ok, _, err := e.core.reach(ctx, Query{Src: src, Dst: ObjectID(o), Interval: iv}, acct)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, ObjectID(o))
		}
	}
	return out, nil
}

// --- backend cores ---

// memCore supplies the no-op I/O surface shared by memory-resident cores.
type memCore struct{}

func (memCore) ioTotals() pagefile.Stats { return pagefile.Stats{} }
func (memCore) resetIO()                 {}
func (memCore) indexBytes() int64        { return 0 }
func (memCore) dropCache()               {}

type gridCore struct{ ix *reachgrid.Index }

func (c gridCore) reach(ctx context.Context, q Query, acct *pagefile.Stats) (bool, int, error) {
	return c.ix.ReachCounted(ctx, q, acct)
}
func (c gridCore) reachSet(ctx context.Context, src ObjectID, iv Interval, acct *pagefile.Stats) ([]ObjectID, error) {
	return c.ix.ReachableSet(ctx, src, iv, acct)
}
func (c gridCore) ioTotals() pagefile.Stats { return c.ix.Counters() }
func (c gridCore) resetIO()                 { c.ix.ResetCounters() }
func (c gridCore) indexBytes() int64        { return c.ix.Store().SizeBytes() }
func (c gridCore) dropCache()               { c.ix.Store().DropCache() }

type spjCore struct{ ix *reachgrid.Index }

func (c spjCore) reach(ctx context.Context, q Query, acct *pagefile.Stats) (bool, int, error) {
	return c.ix.SPJReachCounted(ctx, q, acct)
}
func (c spjCore) reachSet(context.Context, ObjectID, Interval, *pagefile.Stats) ([]ObjectID, error) {
	return nil, errNoNativeSet
}
func (c spjCore) ioTotals() pagefile.Stats { return c.ix.Counters() }
func (c spjCore) resetIO()                 { c.ix.ResetCounters() }
func (c spjCore) indexBytes() int64        { return c.ix.Store().SizeBytes() }
func (c spjCore) dropCache()               { c.ix.Store().DropCache() }

type graphCore struct {
	ix       *reachgraph.Index
	strategy Strategy
}

func (c graphCore) reach(ctx context.Context, q Query, acct *pagefile.Stats) (bool, int, error) {
	return c.ix.ReachStrategyCounted(ctx, q, c.strategy, acct)
}
func (c graphCore) reachSet(context.Context, ObjectID, Interval, *pagefile.Stats) ([]ObjectID, error) {
	return nil, errNoNativeSet
}
func (c graphCore) ioTotals() pagefile.Stats { return c.ix.Counters() }
func (c graphCore) resetIO()                 { c.ix.ResetCounters() }
func (c graphCore) indexBytes() int64        { return c.ix.Store().SizeBytes() }
func (c graphCore) dropCache()               { c.ix.DropCache() }

type graphMemCore struct {
	memCore
	m *reachgraph.Mem
}

func (c graphMemCore) reach(ctx context.Context, q Query, _ *pagefile.Stats) (bool, int, error) {
	return c.m.ReachStrategyCounted(ctx, q, BMBFS)
}
func (c graphMemCore) reachSet(context.Context, ObjectID, Interval, *pagefile.Stats) ([]ObjectID, error) {
	return nil, errNoNativeSet
}

type grailDiskCore struct{ dk *grail.Disk }

func (c grailDiskCore) reach(ctx context.Context, q Query, acct *pagefile.Stats) (bool, int, error) {
	return c.dk.ReachCounted(ctx, q, acct)
}
func (c grailDiskCore) reachSet(context.Context, ObjectID, Interval, *pagefile.Stats) ([]ObjectID, error) {
	return nil, errNoNativeSet
}
func (c grailDiskCore) ioTotals() pagefile.Stats { return c.dk.Counters() }
func (c grailDiskCore) resetIO()                 { c.dk.ResetCounters() }
func (c grailDiskCore) indexBytes() int64        { return c.dk.Store().SizeBytes() }
func (c grailDiskCore) dropCache()               { c.dk.Store().DropCache() }

type grailMemCore struct {
	memCore
	m *grail.Mem
}

func (c grailMemCore) reach(ctx context.Context, q Query, _ *pagefile.Stats) (bool, int, error) {
	return c.m.ReachCounted(ctx, q)
}
func (c grailMemCore) reachSet(context.Context, ObjectID, Interval, *pagefile.Stats) ([]ObjectID, error) {
	return nil, errNoNativeSet
}

type oracleCore struct {
	memCore
	o *queries.Oracle
}

func (c oracleCore) reach(_ context.Context, q Query, _ *pagefile.Stats) (bool, int, error) {
	ok, expanded := c.o.ReachableCounted(q)
	return ok, expanded, nil
}
func (c oracleCore) reachSet(_ context.Context, src ObjectID, iv Interval, _ *pagefile.Stats) ([]ObjectID, error) {
	return c.o.ReachableSet(src, iv), nil
}
