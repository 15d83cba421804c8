package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"streach"
)

// Fixed query parameters of the workloads.
const (
	topK      = 10
	topKDecay = 0.85
)

// windows is a range of query window lengths in ticks.
type windows struct{ lo, hi int }

// filteredSem is the filtered + probabilistic point query: exposure over
// contacts of at least two ticks, within three transfers, each contact
// transmitting with probability 0.8, reachable at τ = 0.3.
var filteredSem = streach.Semantics{MinDuration: 2, MaxHops: 3, Prob: 0.8, ProbThreshold: 0.3}

// query is one generated request. Lo and Hi are absolute ticks.
type query struct {
	Kind     string
	Src, Dst streach.ObjectID
	Lo, Hi   streach.Tick
}

func (q query) interval() streach.Interval { return streach.NewInterval(q.Lo, q.Hi) }

// mix is a query-kind distribution in percent.
type mix map[string]int

// Additive recurrences whose every prefix covers [0, 1) (or the unit
// square, for the pair) evenly: the golden ratio and the R2 sequence.
const (
	golden = 0.6180339887498949
	r2a    = 0.7548776662466927
	r2b    = 0.5698402909980532
)

func frac(x float64) float64 { return x - float64(int64(x)) }

// stream spreads a workload's queries evenly over their kinds, window
// widths, window positions and endpoints: any prefix of it holds each kind
// in its mix share, covers each kind's widths and positions evenly, and
// deals each kind's sources and destinations from shuffled passes over the
// objects. Runs with different seeds therefore differ in which endpoints
// meet which windows rather than in how much of each kind of work they
// draw. The seed sets the offsets and the shuffles.
type stream struct {
	rng  *rand.Rand
	mix  mix
	n    int
	off  [3]float64
	i    int
	rank map[string]int
	ends map[string]*[2]dealer
}

// dealer hands out object IDs in shuffled passes over all of them.
type dealer struct {
	perm []int
	i    int
}

func (d *dealer) next(rng *rand.Rand, n int) streach.ObjectID {
	if d.i == len(d.perm) {
		d.perm, d.i = rng.Perm(n), 0
	}
	d.i++
	return streach.ObjectID(d.perm[d.i-1])
}

func newStream(rng *rand.Rand, m mix, numObjects int) *stream {
	total := 0
	for _, k := range kinds {
		total += m[k]
	}
	if total != 100 {
		panic(fmt.Sprintf("mix %v does not sum to 100", m))
	}
	return &stream{rng: rng, mix: m, n: numObjects, off: [3]float64{rng.Float64(), rng.Float64(), rng.Float64()},
		rank: map[string]int{}, ends: map[string]*[2]dealer{}}
}

// next returns the next query's kind and endpoints, its rank among the
// queries of that kind so far, and the fractions placing its window width
// and position.
func (s *stream) next() (q query, rank int, wu, pu float64) {
	x := int(frac(s.off[0]+float64(s.i)*golden) * 100)
	s.i++
	for _, k := range kinds {
		if x < s.mix[k] {
			q.Kind = k
			break
		}
		x -= s.mix[k]
	}
	ends := s.ends[q.Kind]
	if ends == nil {
		ends = &[2]dealer{}
		s.ends[q.Kind] = ends
	}
	q.Src = ends[0].next(s.rng, s.n)
	for q.Dst = ends[1].next(s.rng, s.n); q.Dst == q.Src; {
		q.Dst = ends[1].next(s.rng, s.n)
	}
	rank = s.rank[q.Kind]
	s.rank[q.Kind]++
	return q, rank, frac(s.off[1] + float64(rank)*r2a), frac(s.off[2] + float64(rank)*r2b)
}

// width maps u in [0, 1) onto a window length in [w.lo, w.hi].
func (w windows) width(u float64) int { return w.lo + int(u*float64(w.hi-w.lo+1)) }

// historyQueries generates count queries of mix m with window lengths
// from ws spread over [0, numTicks).
func historyQueries(rng *rand.Rand, m mix, ws windows, count, numObjects, numTicks int) []query {
	st := newStream(rng, m, numObjects)
	out := make([]query, count)
	for i := range out {
		q, _, wu, pu := st.next()
		w := min(ws.width(wu), numTicks-1)
		q.Lo = streach.Tick(pu * float64(numTicks-w))
		q.Hi = q.Lo + streach.Tick(w)
		out[i] = q
	}
	return out
}

// outcome is an answer in a form every kind shares, with the engine's
// own accounting of the work it did.
type outcome struct {
	reachable bool
	objects   []streach.ObjectID
	arrival   streach.Tick
	items     []streach.Ranked
	hops      int
	prob      float64
	native    bool
	expanded  int
	io        streach.IOStats
	// cached marks an answer the serving layer took from its result cache;
	// engineUS is the engine time the server reported (0 when cached).
	cached   bool
	engineUS float64
}

// execute runs q on eng through the Engine method of its kind.
func execute(ctx context.Context, eng streach.Engine, q query) (outcome, error) {
	iv := q.interval()
	switch q.Kind {
	case kindPoint, kindFiltered:
		sq := streach.Query{Src: q.Src, Dst: q.Dst, Interval: iv}
		if q.Kind == kindFiltered {
			sq.Semantics = filteredSem
		}
		r, err := eng.Reachable(ctx, sq)
		return outcome{reachable: r.Reachable, hops: r.Hops, prob: r.Prob, native: r.Native,
			expanded: r.Expanded, io: r.IO}, err
	case kindSet:
		r, err := eng.ReachableSet(ctx, q.Src, iv)
		return outcome{objects: r.Objects, native: true, expanded: r.Expanded, io: r.IO}, err
	case kindArrival:
		r, err := eng.EarliestArrival(ctx, q.Src, q.Dst, iv)
		return outcome{reachable: r.Reachable, arrival: r.Arrival, hops: r.Hops, native: r.Native,
			expanded: r.Expanded, io: r.IO}, err
	case kindTopK:
		r, err := eng.TopKReachable(ctx, q.Src, iv, topK, topKDecay)
		return outcome{items: r.Items, native: r.Native, expanded: r.Expanded, io: r.IO}, err
	}
	return outcome{}, fmt.Errorf("unknown query kind %q", q.Kind)
}

// matches reports whether got answers q as the oracle's want does. Point
// and set answers must agree exactly; arrivals on the answer and the
// arrival tick (hop counts are reported only by hop-tracking cores);
// top-k lists entry by entry; filtered rows on the answer, the path
// probability and the transfer count.
func matches(kind string, got, want outcome) bool {
	switch kind {
	case kindPoint:
		return got.reachable == want.reachable
	case kindSet:
		return slices.Equal(got.objects, want.objects)
	case kindArrival:
		return got.reachable == want.reachable && got.arrival == want.arrival
	case kindTopK:
		return slices.Equal(got.items, want.items)
	case kindFiltered:
		return got.reachable == want.reachable && got.prob == want.prob && got.hops == want.hops
	}
	return false
}
