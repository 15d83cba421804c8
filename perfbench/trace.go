package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Spans of one request share
// Req; a span's Parent is the ID of the span that caused it (0 for a
// root). IDs follow from the request: 2·Req for the client's span and
// 2·Req+1 for the span of the layer it called, so either side can record
// first. Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// EngineNS is the engine time the server reported for the request,
	// on handler spans (0 for answers from the result cache).
	EngineNS int64 `json:"engine_ns,omitempty"`
}

func clientSpanID(req int64) int64 { return 2 * req }
func calleeSpanID(req int64) int64 { return 2*req + 1 }

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Untraced phases run
// without one.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// since converts a wall time to the tracer's clock.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// record stores s.
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byName returns the recorded spans called name.
func (t *tracer) byName(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines in dir and returns the file path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
