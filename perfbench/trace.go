package main

import (
	"sync/atomic"
	"time"

	"gnnvault/internal/obs"
)

// span is one timed call into a layer's entry point during the traced
// replay. Spans of one replayed request share req; parent is the span ID
// of the enclosing (next-outer) layer call, 0 for the request's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the replay's spans in memory; they are written out when
// the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call times fn as a span named name under parent for request req and
// returns the new span's ID.
func (t *tracer) call(name string, parent, req int, fn func()) int {
	start := time.Since(t.t0).Nanoseconds()
	fn()
	end := time.Since(t.t0).Nanoseconds()
	return t.add(span{Parent: parent, Req: req, Name: name, Start: start, End: end})
}

// add records a span with explicit times and returns its ID.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children. A negative result (a child call that
// took longer than its parent call on the same request, which separate
// replayed calls allow) is kept as is, so callers can see it.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerSelf sums self time per span name per request: out[name][req].
func layerSelf(spans []span) map[string]map[int]int64 {
	self := selfTimes(spans)
	out := map[string]map[int]int64{}
	for _, s := range spans {
		m := out[s.Name]
		if m == nil {
			m = map[int]int64{}
			out[s.Name] = m
		}
		m[s.Req] += self[s.ID]
	}
	return out
}

// coverage is the share of the typical end-to-end call that the layers'
// typical self times account for: the sum over layers of each layer's
// median self time (negative medians clipped to zero), divided by the
// median root span duration. Medians keep one noisy replayed call from
// dominating; 1 means the layers explain the whole call, above 1 that
// inner calls ran longer than the outer calls containing them.
func coverage(spans []span) float64 {
	var roots []float64
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, float64(s.dur()))
		}
	}
	if len(roots) == 0 {
		return 0
	}
	sum := 0.0
	for _, byReq := range layerSelf(spans) {
		var xs []float64
		for _, ns := range byReq {
			xs = append(xs, float64(ns))
		}
		sum += max(0, median(xs))
	}
	return sum / median(roots)
}

// switchRecorder forwards the program's own spans (backbone, ecall, op,
// plan, evict) into a ring only while switched on, so one traced stack
// can replay requests with program telemetry off and then on.
type switchRecorder struct {
	ring *obs.Ring
	on   atomic.Bool
}

func (r *switchRecorder) Enabled() bool     { return r.on.Load() }
func (r *switchRecorder) NewSpan() uint64   { return r.ring.NewSpan() }
func (r *switchRecorder) Clock() int64      { return r.ring.Clock() }
func (r *switchRecorder) Record(s obs.Span) { r.ring.Record(s) }
