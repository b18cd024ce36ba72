package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"` // shared by the spans of one HTTP request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns fn's error.
func (t *tracer) do(name string, parent int64, fn func(id int64) error) error {
	id := t.begin(name, parent, 0)
	err := fn(id)
	t.end(id)
	return err
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations (ms) of the finished spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns, for each finished span named name, its duration minus
// the part of its interval that its child spans cover (ms).
func (t *tracer) selfTimes(name string) []float64 {
	spans := t.closed()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(selfTime(s, children[s.ID])))
		}
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals,
// clipped to s.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := int64(0), s.Start
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			covered += v.hi - reach
			reach = v.hi
		}
	}
	return s.dur() - time.Duration(covered)
}

// write dumps the finished spans as JSON to path.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(t.closed())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
