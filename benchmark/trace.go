package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced pass. Spans are recorded by the
// benchmark's own wrappers at each boundary it calls through (pass -> step
// -> engine op); spans inside the program are a later issue.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`  // -1 for a root
	Start  float64 `json:"start_s"` // seconds since the tracer was made
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // duration minus the interval the children cover
	// Counts are the exact registry counters and phase sums diffed over the
	// span (steps only), so ratios are measured where the work happens.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
	open  []int  // stack of begun spans; guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: now, End: now})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned, attaching counts when given.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Counts = counts
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// leaf records an already finished interval that ended now and lasted d
// under the innermost open span — the shape engine.SetInstrumentation
// reports operations in.
func (t *tracer) leaf(name string, d time.Duration) {
	if t == nil {
		return
	}
	end := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Parent: parent,
		Start: end - d.Seconds(), End: end})
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = (s.End - s.Start) - covered(t.spans, children[s.ID], s.Start, s.End)
	}
	return append([]span(nil), t.spans...)
}

// covered is the length of the union of the given spans' intervals clipped
// to [lo, hi].
func covered(spans []span, ids []int, lo, hi float64) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].Start, spans[id].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeSpans writes the span file of one workload.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
