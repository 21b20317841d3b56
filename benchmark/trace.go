package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer: name, interval,
// the span that caused it (0 for a root), and the request it served
// (a compile, circuit, job or cell), shared by every span of that request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	// Start and End are nanoseconds since the trace epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced phase: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so a parent can be named before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a span under a previously reserved id.
func (t *tracer) record(id, parent int64, name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span under a fresh id and returns the id.
func (t *tracer) add(parent int64, name, req string, start, end time.Time) int64 {
	id := t.newID()
	t.record(id, parent, name, req, start, end)
	return id
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		covered := int64(0)
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerTimes groups spans by name: each span's duration and self time in
// milliseconds, in recording order.
type layerTimes struct {
	dur, self map[string][]float64
}

func newLayerTimes(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		lt.dur[s.Name] = append(lt.dur[s.Name], ms(time.Duration(s.End-s.Start)))
		lt.self[s.Name] = append(lt.self[s.Name], ms(self[s.ID]))
	}
	return lt
}

// writeSpans saves the trace as JSON.
func writeSpans(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
