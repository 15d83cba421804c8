package main

import (
	"context"
	"net/http"
	"runtime"
	"slices"
	"time"

	"streach"
)

// checkLive compares every query answer with an oracle over the feed as
// it stood when the query was sent. The ingest stream is replayed into a
// reference LiveEngine over the brute-force oracle backend; an answer is
// checked against that engine's Snapshot after ingest request s, for any
// s between the requests completed before the send and the first later
// request that changed contacts inside the query's window. Answers whose
// window a request changed while the query was in flight are not checked.
// It marks calls and returns the number checked.
func checkLive(open func(backend string) (*streach.LiveEngine, error), positions [][]streach.Point, ops []ingestOp, calls []liveCall) (int, error) {
	type job struct{ call, lo, hi int }
	var jobs []job
	for i, c := range calls {
		if c.ingest || c.err != nil || c.status != http.StatusOK {
			continue
		}
		f := len(ops)
		for j := c.state; j < len(ops); j++ {
			if ops[j].touches(c.q) {
				f = j
				break
			}
		}
		if f < c.started {
			continue
		}
		jobs = append(jobs, job{i, c.state, f})
	}
	// Visit the fewest replay states that serve every job: each new state
	// is the latest one the earliest-ending unserved job allows.
	slices.SortFunc(jobs, func(a, b job) int { return a.hi - b.hi })
	var (
		states []int
		groups [][]int // calls checked at each state
	)
	for _, jb := range jobs {
		if len(states) == 0 || states[len(states)-1] < jb.lo {
			states = append(states, jb.hi)
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], jb.call)
	}
	ref, err := open("oracle")
	if err != nil {
		return 0, err
	}
	applied := 0
	for g, at := range states {
		for ; applied < at; applied++ {
			op := ops[applied]
			if op.events == nil {
				err = ref.AddInstant(positions[op.tick])
			} else {
				_, err = ref.Ingest(op.events)
			}
			if err != nil {
				return 0, err
			}
		}
		oracle, err := streach.Open("oracle", ref.Snapshot(), streach.Options{})
		if err != nil {
			return 0, err
		}
		if err := checkAt(oracle, calls, groups[g]); err != nil {
			return 0, err
		}
	}
	return len(jobs), nil
}

// checkAt compares the answers of calls[idx] with oracle's, evaluating
// each distinct query once, on as many workers as there are processors.
func checkAt(oracle streach.Engine, calls []liveCall, idx []int) error {
	byQuery := map[query][]int{}
	var distinct []query
	for _, i := range idx {
		q := calls[i].q
		if _, ok := byQuery[q]; !ok {
			distinct = append(distinct, q)
		}
		byQuery[q] = append(byQuery[q], i)
	}
	want := make([]outcome, len(distinct))
	errs := make([]error, len(distinct))
	closedLoop(runtime.GOMAXPROCS(0), time.Time{}, len(distinct), func(i int) {
		want[i], errs[i] = execute(context.Background(), oracle, distinct[i])
	})
	for i, q := range distinct {
		if errs[i] != nil {
			return errs[i]
		}
		for _, c := range byQuery[q] {
			calls[c].checked = true
			calls[c].mismatch = !matches(q.Kind, calls[c].out, want[i])
		}
	}
	return nil
}
