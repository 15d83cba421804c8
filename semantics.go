// The temporal-semantics query layer: earliest-arrival, hop-bounded and
// top-k transfer-decay queries over every registry backend.
//
// Plain reachability answers *whether* an item spreads; contact-tracing
// and dissemination workloads also ask *when* it arrives, *through how
// many transfers*, and *which K contacts matter most* (the query families
// of Strzheletska & Tsotras and Ali et al.). The layer reduces all three
// to one primitive — the propagation profile: per reachable object, the
// minimal transfer count and the earliest arrival tick — and evaluates it
// natively inside the traversal cores wherever the backend's structure
// allows:
//
//   - oracle: per-instant hop relaxation, the ground truth (all semantics)
//   - reachgrid: the guided sweep with relaxation instead of union-find
//     (all semantics — the grid joins real contact pairs per instant)
//   - reachgraph, reachgraph-mem (all strategies): a forward arrival sweep
//     over the run DAG (earliest-arrival only; runs collapse contact
//     components, so transfer counts are not derivable)
//   - segmented:* and LiveEngine: the cross-segment planner carries
//     arrival ticks and residual hop budgets across slab frontiers, native
//     whenever every slab core is
//
// Everything else (spj, grail, grail-mem; hop queries on reachgraph) falls
// back to a brute-force oracle over the engine's source contacts; results
// carry a Native flag so the fallback is always explicit. The evaluators
// reuse the pooled epoch-stamped visit machinery (tick tables instead of
// boolean sets); plain boolean queries never touch this layer and keep
// their zero-allocation steady state.

package streach

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/visit"
)

// Semantics optionally refines a Query's propagation model: a transfer
// (hop) bound, earliest-arrival tracking, a per-transfer decay weight. The
// zero value is plain boolean reachability and stays on the engines'
// allocation-free boolean path.
type Semantics = queries.Semantics

// ArrivalResult is the typed answer to an EarliestArrival query.
type ArrivalResult struct {
	// Src, Dst and Interval echo the evaluated query.
	Src, Dst ObjectID
	Interval Interval
	// Reachable is the boolean answer; Arrival is the earliest tick at
	// which Dst holds the item (-1 when unreachable).
	Reachable bool
	Arrival   Tick
	// Hops is the minimal number of transfers among delivery chains
	// arriving by the Arrival tick, when the evaluating core tracks
	// transfer counts; -1 otherwise (ReachGraph's arrival sweep is
	// hop-agnostic). Contacts after the arrival may deliver the item over
	// fewer transfers — TopKReachable ranks by that full-interval minimum.
	Hops int
	// Native reports whether the backend evaluated the query in its own
	// traversal core; false means the oracle fallback answered.
	Native bool
	// IO, Latency, Expanded mirror Result.
	IO       IOStats
	Latency  time.Duration
	Expanded int
}

// Ranked is one entry of a top-k reachability answer.
type Ranked struct {
	// Object is the reached object.
	Object ObjectID
	// Hops is its minimal transfer count; Arrival its earliest receipt
	// tick.
	Hops    int
	Arrival Tick
	// Weight is decay^Hops, the received item weight under transfer decay.
	Weight float64
}

// TopKResult is the typed answer to a TopKReachable query.
type TopKResult struct {
	// Src, Interval, K and Decay echo the evaluated query.
	Src      ObjectID
	Interval Interval
	K        int
	Decay    float64
	// Items holds at most K entries, ranked by Weight descending, then
	// Arrival ascending, then Object ascending. Src itself is excluded.
	Items []Ranked
	// Native, IO, Latency, Expanded mirror ArrivalResult.
	Native   bool
	IO       IOStats
	Latency  time.Duration
	Expanded int
}

// semSpec classifies one semantic evaluation: the transfer budget
// (queries.UnboundedHops for none), whether per-object transfer counts
// must be reported (top-k decay ranking needs them even when unbounded),
// and the per-contact predicate restricting propagation. Probability does
// not appear: under the uniform per-contact p of §7 the best path
// probability is p^minHops and the threshold τ folds into the budget
// (Semantics.EffectiveBudget), so probabilistic queries ride the
// hop-tracking plumbing of every layer — the spec they compile to is just
// a budgeted, hop-reporting spec, and the facade stamps Result.Prob from
// the returned transfer count.
type semSpec struct {
	budget   int32
	needHops bool
	filter   queries.Filter
}

// tracksHops reports whether the evaluation must count transfers.
func (s semSpec) tracksHops() bool {
	return s.budget != queries.UnboundedHops || s.needHops
}

// ErrBadSemantics wraps every Semantics validation failure — inconsistent
// probabilistic parameters, negative bounds, unregistered filter IDs — so
// callers (the serving layer in particular) can distinguish a malformed
// query from an evaluation failure.
var ErrBadSemantics = errors.New("streach: invalid query semantics")

// specFor compiles a query's Semantics into the evaluation spec, folding
// the probability threshold into the transfer budget and forcing hop
// tracking when a probability must be reported. It rejects inconsistent
// probabilistic parameters and unregistered filter IDs up front, so no
// evaluator ever sees a predicate it cannot resolve.
func specFor(sem Semantics) (semSpec, error) {
	if sem.Prob < 0 || sem.Prob > 1 || math.IsNaN(sem.Prob) {
		return semSpec{}, fmt.Errorf("%w: contact probability %v outside [0, 1]", ErrBadSemantics, sem.Prob)
	}
	if sem.ProbThreshold != 0 {
		if sem.Prob == 0 {
			return semSpec{}, fmt.Errorf("%w: probability threshold %v without a contact probability", ErrBadSemantics, sem.ProbThreshold)
		}
		if !(sem.ProbThreshold > 0 && sem.ProbThreshold <= 1) {
			return semSpec{}, fmt.Errorf("%w: probability threshold %v outside (0, 1]", ErrBadSemantics, sem.ProbThreshold)
		}
	}
	if sem.MCTrials < 0 {
		return semSpec{}, fmt.Errorf("%w: negative Monte-Carlo trial count %d", ErrBadSemantics, sem.MCTrials)
	}
	if sem.MCTrials > 0 && sem.Prob == 0 {
		return semSpec{}, fmt.Errorf("%w: Monte-Carlo trials without a contact probability", ErrBadSemantics)
	}
	if sem.MinDuration < 0 {
		return semSpec{}, fmt.Errorf("%w: negative minimum duration %d", ErrBadSemantics, sem.MinDuration)
	}
	if sem.MaxWeight < 0 || math.IsNaN(sem.MaxWeight) {
		return semSpec{}, fmt.Errorf("%w: invalid maximum weight %v", ErrBadSemantics, sem.MaxWeight)
	}
	if sem.FilterID != "" {
		if _, ok := queries.ResolveFilter(sem.FilterID); !ok {
			return semSpec{}, fmt.Errorf("%w: unregistered contact filter %q", ErrBadSemantics, sem.FilterID)
		}
	}
	return semSpec{
		budget:   sem.EffectiveBudget(),
		needHops: sem.Prob > 0,
		filter:   sem.Filter(),
	}, nil
}

// RegisterContactFilter registers a compiled per-contact predicate under
// id for use via Semantics.FilterID: queries then propagate only over
// contacts the predicate accepts, on every backend (natively where the
// backend evaluates contact records, through the exact oracle projection
// otherwise). Register at process setup; serving layers accept only
// registered IDs.
func RegisterContactFilter(id string, fn func(Contact) bool) {
	queries.RegisterFilter(id, fn)
}

// semCore is the optional native temporal-semantics surface of an
// engineCore. Cores advertise which evaluation classes they implement;
// the engine falls back to the oracle for the rest.
type semCore interface {
	// semSupports reports whether semProfile evaluates spec natively.
	semSupports(spec semSpec) bool
	// semProfile appends to dst the propagation profile of the seed
	// frontier over iv (sorted by object ID): minimal transfer counts
	// under spec.budget — or -1 when the core does not track hops — and
	// earliest arrival ticks. A valid earlyDst stops the evaluation as
	// soon as earlyDst is reachable (the profile is then partial but
	// earlyDst's entry exact). The int result is the expansion counter.
	semProfile(ctx context.Context, dst []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, earlyDst ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error)
}

// --- native core implementations ---

func (c oracleCore) semSupports(semSpec) bool { return true }

func (c oracleCore) semProfile(_ context.Context, dst []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, earlyDst ObjectID, _ *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	entries, n := c.o.Filtered(spec.filter).ProfileFrom(seeds, iv, spec.budget, earlyDst)
	return append(dst, entries...), n, nil
}

// The grid joins object positions per instant and never sees contact
// records, so per-contact predicates cannot be pushed into the sweep.
func (c gridCore) semSupports(spec semSpec) bool { return !spec.filter.Active() }

func (c gridCore) semProfile(ctx context.Context, dst []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, earlyDst ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	return c.ix.AppendSemProfileFrom(ctx, dst, seeds, iv, spec.budget, earlyDst, acct)
}

func (c graphCore) semSupports(spec semSpec) bool {
	return !spec.tracksHops() && !spec.filter.Active()
}

func (c graphCore) semProfile(ctx context.Context, dst []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, _ semSpec, _ ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	return c.ix.AppendArrivalProfileSeeds(ctx, dst, seeds, iv, acct)
}

func (c graphMemCore) semSupports(spec semSpec) bool {
	return !spec.tracksHops() && !spec.filter.Active()
}

func (c graphMemCore) semProfile(ctx context.Context, dst []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, _ semSpec, _ ObjectID, _ *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	return c.m.AppendArrivalProfileSeeds(ctx, dst, seeds, iv)
}

// semScratch is the pooled working state of one facade-level semantic
// query: the seed buffer and the profile entry buffer.
type semScratch struct {
	seeds   []queries.SeedState
	entries []queries.ProfileEntry
}

var semPool = visit.NewPool(func() *semScratch { return new(semScratch) })

// --- shared entry-point protocol ---

// The engine methods below own the whole semantic query protocol —
// validation, clamping, the src==dst shortcut, seeding, result bookkeeping
// — for every engine, LiveEngine included (it pins a view and calls them).

// semNativeFor reports whether the engine's core evaluates spec natively.
func (e *engine) semNativeFor(spec semSpec) bool {
	sc, ok := e.core.(semCore)
	return ok && sc.semSupports(spec)
}

// semEvaluate runs one semantic evaluation: natively when the core
// supports the spec, through the lazily-built oracle fallback otherwise.
// The returned entries may alias sc.entries and must be consumed before sc
// is released.
func (e *engine) semEvaluate(ctx context.Context, sc *semScratch, seeds []queries.SeedState, iv Interval, spec semSpec, earlyDst ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, bool, error) {
	if c, ok := e.core.(semCore); ok && c.semSupports(spec) {
		entries, n, err := c.semProfile(ctx, sc.entries[:0], seeds, iv, spec, earlyDst, acct)
		sc.entries = entries
		return entries, n, true, err
	}
	entries, n := e.fallbackOracle().Filtered(spec.filter).ProfileFrom(seeds, iv, spec.budget, earlyDst)
	return entries, n, false, nil
}

// fallbackOracle lazily builds the brute-force oracle over the engine's
// source contacts. For trajectory sources this triggers (or reuses) the
// dataset's one cached contact extraction.
func (e *engine) fallbackOracle() *queries.Oracle {
	e.fbOnce.Do(func() {
		e.fb = queries.NewOracle(e.src.sourceContacts().net)
	})
	return e.fb
}

// findEntry locates obj in a profile (entries are sorted by object).
func findEntry(entries []queries.ProfileEntry, obj ObjectID) (queries.ProfileEntry, bool) {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Obj >= obj })
	if i < len(entries) && entries[i].Obj == obj {
		return entries[i], true
	}
	return queries.ProfileEntry{}, false
}

// clampDomain intersects iv with a numTicks-sized time domain.
func clampDomain(iv Interval, numTicks int) Interval {
	return iv.Intersect(Interval{Lo: 0, Hi: Tick(numTicks - 1)})
}

// reachableSem answers a point query whose Semantics field is active:
// hop-bounded, predicate-filtered and/or probabilistic reachability with
// earliest-arrival tracking. Probabilistic queries report the best-path
// probability p^minHops under the τ-folded budget, except when MCTrials
// requests the seeded Monte-Carlo reliability estimate, which diverts to
// the engine's exact oracle before any profile evaluation.
func (e *engine) reachableSem(ctx context.Context, q Query) (Result, error) {
	if err := validatePlanIDs(e.numObjects, q.Src, q.Dst); err != nil {
		return Result{}, err
	}
	spec, err := specFor(q.Semantics)
	if err != nil {
		return Result{}, err
	}
	if q.Semantics.MCTrials > 0 {
		return e.monteCarlo(q), nil
	}
	res := Result{Query: q, Evaluated: true, Arrival: -1, Hops: -1, Native: e.semNativeFor(spec)}
	iv := clampDomain(q.Interval, e.numTicks)
	if e.numTicks == 0 || iv.Len() == 0 {
		return res, nil
	}
	if q.Src == q.Dst {
		res.Reachable, res.Arrival, res.Hops = true, iv.Lo, 0
		if q.Semantics.Prob > 0 {
			res.Prob = 1
		}
		return res, nil
	}
	acct := acctPool.Get().(*pagefile.Stats)
	defer acctPool.Put(acct)
	acct.Reset()
	sc := semPool.Get()
	defer semPool.Put(sc)
	start := time.Now()
	seeds := append(sc.seeds[:0], queries.SeedState{Obj: q.Src, Hops: 0})
	sc.seeds = seeds
	// Early termination stops the profile at the destination's earliest
	// arrival, whose delivery chain may use more transfers than the
	// interval's overall minimum. The best-path probability is p^minHops
	// over the whole interval, so probabilistic queries run it to the end.
	early := q.Dst
	if q.Semantics.Prob > 0 {
		early = queries.NoObject
	}
	entries, expanded, native, err := e.semEvaluate(ctx, sc, seeds, iv, spec, early, acct)
	if err != nil {
		return Result{}, err
	}
	res.Native = native
	if en, ok := findEntry(entries, q.Dst); ok {
		res.Reachable = true
		res.Arrival = en.Arrival
		res.Hops = int(en.Hops)
		if p := q.Semantics.Prob; p > 0 && res.Hops >= 0 {
			res.Prob = math.Pow(p, float64(res.Hops))
		}
	}
	res.IO = statsOf(*acct)
	res.Latency = time.Since(start)
	res.Expanded = expanded
	return res, nil
}

// monteCarlo answers a probabilistic point query by seeded world
// sampling over the engine's exact contact oracle (two-terminal
// reliability, an upper bound on the best-path probability). It is the
// documented fallback — never native — and reports the estimate in
// Result.Prob; Reachable compares it against the query's threshold.
func (e *engine) monteCarlo(q Query) Result {
	res := Result{Query: q, Evaluated: true, Arrival: -1, Hops: -1}
	iv := clampDomain(q.Interval, e.numTicks)
	if e.numTicks == 0 || iv.Len() == 0 {
		return res
	}
	start := time.Now()
	mq := q
	mq.Interval = iv
	est := e.fallbackOracle().MonteCarloReachable(mq)
	res.Prob = est
	if tau := q.Semantics.ProbThreshold; tau > 0 {
		res.Reachable = est >= tau
	} else {
		res.Reachable = est > 0
	}
	if q.Src == q.Dst {
		res.Arrival, res.Hops = iv.Lo, 0
	}
	res.Latency = time.Since(start)
	return res
}

func (e *engine) EarliestArrival(ctx context.Context, src, dst ObjectID, iv Interval) (ArrivalResult, error) {
	if err := ctx.Err(); err != nil {
		return ArrivalResult{}, err
	}
	if err := validatePlanIDs(e.numObjects, src, dst); err != nil {
		return ArrivalResult{}, err
	}
	spec := semSpec{budget: queries.UnboundedHops}
	res := ArrivalResult{Src: src, Dst: dst, Interval: iv, Arrival: -1, Hops: -1, Native: e.semNativeFor(spec)}
	clamped := clampDomain(iv, e.numTicks)
	if e.numTicks == 0 || clamped.Len() == 0 {
		return res, nil
	}
	if src == dst {
		res.Reachable, res.Arrival, res.Hops = true, clamped.Lo, 0
		return res, nil
	}
	acct := acctPool.Get().(*pagefile.Stats)
	defer acctPool.Put(acct)
	acct.Reset()
	sc := semPool.Get()
	defer semPool.Put(sc)
	start := time.Now()
	seeds := append(sc.seeds[:0], queries.SeedState{Obj: src, Hops: 0})
	sc.seeds = seeds
	entries, expanded, native, err := e.semEvaluate(ctx, sc, seeds, clamped, spec, dst, acct)
	if err != nil {
		return ArrivalResult{}, err
	}
	res.Native = native
	if en, ok := findEntry(entries, dst); ok {
		res.Reachable = true
		res.Arrival = en.Arrival
		res.Hops = int(en.Hops)
	}
	res.IO = statsOf(*acct)
	res.Latency = time.Since(start)
	res.Expanded = expanded
	return res, nil
}

func (e *engine) TopKReachable(ctx context.Context, src ObjectID, iv Interval, k int, decay float64) (TopKResult, error) {
	if err := ctx.Err(); err != nil {
		return TopKResult{}, err
	}
	if err := validatePlanIDs(e.numObjects, src, src); err != nil {
		return TopKResult{}, err
	}
	if err := validateTopK(k, decay); err != nil {
		return TopKResult{}, err
	}
	spec := semSpec{budget: queries.UnboundedHops, needHops: true}
	res := TopKResult{Src: src, Interval: iv, K: k, Decay: decay, Native: e.semNativeFor(spec)}
	clamped := clampDomain(iv, e.numTicks)
	if e.numTicks == 0 || clamped.Len() == 0 || k == 0 {
		return res, nil
	}
	acct := acctPool.Get().(*pagefile.Stats)
	defer acctPool.Put(acct)
	acct.Reset()
	sc := semPool.Get()
	defer semPool.Put(sc)
	start := time.Now()
	seeds := append(sc.seeds[:0], queries.SeedState{Obj: src, Hops: 0})
	sc.seeds = seeds
	entries, expanded, native, err := e.semEvaluate(ctx, sc, seeds, clamped, spec, queries.NoObject, acct)
	if err != nil {
		return TopKResult{}, err
	}
	res.Native = native
	res.Items = rankTopK(entries, src, k, decay)
	res.IO = statsOf(*acct)
	res.Latency = time.Since(start)
	res.Expanded = expanded
	return res, nil
}

// validateTopK rejects nonsensical top-k parameters.
func validateTopK(k int, decay float64) error {
	if k < 0 {
		return fmt.Errorf("streach: negative k %d", k)
	}
	if !(decay > 0 && decay <= 1) {
		return fmt.Errorf("streach: decay %v outside (0, 1]", decay)
	}
	return nil
}

// rankTopK ranks a full propagation profile under transfer decay and
// returns the top k entries, src excluded. Ordering is weight descending,
// then arrival ascending, then object ascending — fully deterministic.
func rankTopK(entries []queries.ProfileEntry, src ObjectID, k int, decay float64) []Ranked {
	items := make([]Ranked, 0, len(entries))
	for _, en := range entries {
		if en.Obj == src {
			continue
		}
		items = append(items, Ranked{
			Object:  en.Obj,
			Hops:    int(en.Hops),
			Arrival: en.Arrival,
			Weight:  math.Pow(decay, float64(en.Hops)),
		})
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.Object < b.Object
	})
	if len(items) > k {
		items = items[:k]
	}
	return items
}
