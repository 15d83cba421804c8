package streach_test

import (
	"context"
	"reflect"
	"testing"

	"streach"
)

// TestLiveFrozenParity feeds a slab-aligned feed into a LiveEngine, so
// every slab is sealed, and checks that each query kind answers exactly
// like the frozen backend opened over the engine's snapshot with the same
// slab width: a live query pins a view and runs the same engine wrapper
// and planners. Expansion counters are compared for the unsharded pairs
// only; the sharded pairs agree on answers but not on Expanded.
func TestLiveFrozenParity(t *testing.T) {
	const segTicks = 32
	ds := replaySource(t, 40, 5*segTicks)
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
		Count: 80, MinLen: 4, MaxLen: 150, Seed: 17,
	})
	ctx := context.Background()
	for _, pair := range []struct {
		live, frozen string
		expanded     bool
	}{
		{"reachgraph-mem", "segmented:reachgraph-mem", true},
		{"oracle", "segmented:oracle", true},
		{"bidir:reachgraph-mem", "bidir:reachgraph-mem", true},
		{"shard:2:reachgraph-mem", "shard:2:segmented:reachgraph-mem", false},
	} {
		t.Run(pair.live, func(t *testing.T) {
			opts := streach.Options{SegmentTicks: segTicks}
			le, err := streach.NewLiveEngine(pair.live, ds.NumObjects(), ds.Env(), ds.ContactDist(), opts)
			if err != nil {
				t.Fatal(err)
			}
			feedLive(t, le, ds, ds.NumTicks())
			if got, want := le.NumSealedSegments(), ds.NumTicks()/segTicks; got != want {
				t.Fatalf("%d sealed segments, want %d", got, want)
			}
			fz, err := streach.Open(pair.frozen, le.Snapshot(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range work {
				for _, sem := range []streach.Semantics{{}, {MaxHops: 3}} {
					q.Semantics = sem
					lr, err := le.Reachable(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					fr, err := fz.Reachable(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if lr.Reachable != fr.Reachable || lr.Native != fr.Native || lr.Arrival != fr.Arrival || lr.Hops != fr.Hops ||
						(pair.expanded && lr.Expanded != fr.Expanded) {
						t.Fatalf("Reachable(%+v): live %+v, frozen %+v", q, lr, fr)
					}
				}

				ls, err := le.ReachableSet(ctx, q.Src, q.Interval)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := fz.ReachableSet(ctx, q.Src, q.Interval)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ls.Objects, fs.Objects) {
					t.Fatalf("ReachableSet(%d, %v): live %v, frozen %v", q.Src, q.Interval, ls.Objects, fs.Objects)
				}

				la, err := le.EarliestArrival(ctx, q.Src, q.Dst, q.Interval)
				if err != nil {
					t.Fatal(err)
				}
				fa, err := fz.EarliestArrival(ctx, q.Src, q.Dst, q.Interval)
				if err != nil {
					t.Fatal(err)
				}
				if la.Reachable != fa.Reachable || la.Native != fa.Native || la.Arrival != fa.Arrival || la.Hops != fa.Hops ||
					(pair.expanded && la.Expanded != fa.Expanded) {
					t.Fatalf("EarliestArrival(%+v): live %+v, frozen %+v", q, la, fa)
				}

				lk, err := le.TopKReachable(ctx, q.Src, q.Interval, 5, 0.8)
				if err != nil {
					t.Fatal(err)
				}
				fk, err := fz.TopKReachable(ctx, q.Src, q.Interval, 5, 0.8)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lk.Items, fk.Items) || lk.Native != fk.Native ||
					(pair.expanded && lk.Expanded != fk.Expanded) {
					t.Fatalf("TopKReachable(%d, %v): live %+v, frozen %+v", q.Src, q.Interval, lk, fk)
				}
			}
		})
	}
}
