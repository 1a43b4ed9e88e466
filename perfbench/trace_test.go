package main

import (
	"math"
	"testing"
)

// chainSpans builds one request's chain http ⊃ api ⊃ serve ⊃ {registry,
// core, registry} with the given durations in ns.
func chainSpans(tr *tracer, req int, http, api, serve, acq, core, rel int64) {
	h := tr.add(span{Req: req, Name: "http", End: http})
	a := tr.add(span{Parent: h, Req: req, Name: "api", End: api})
	s := tr.add(span{Parent: a, Req: req, Name: "serve", End: serve})
	tr.add(span{Parent: s, Req: req, Name: "registry", End: acq})
	tr.add(span{Parent: s, Req: req, Name: "core", End: core})
	tr.add(span{Parent: s, Req: req, Name: "registry", End: rel})
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	chainSpans(tr, 1, 1000, 900, 850, 10, 800, 5)
	self := selfTimes(tr.spans)
	want := map[int]int64{1: 100, 2: 50, 3: 35, 4: 10, 5: 800, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	// Self times telescope to the root's duration.
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, want the root's 1000", sum)
	}
	layers := layerSelf(tr.spans)
	if got := layers["registry"][1]; got != 15 {
		t.Errorf("registry self (acquire + release) = %d, want 15", got)
	}
}

func TestSelfTimeNegativeKept(t *testing.T) {
	tr := newTracer()
	chainSpans(tr, 1, 1000, 900, 850, 10, 900, 5) // core slower than serve
	if got := layerSelf(tr.spans)["serve"][1]; got != -65 {
		t.Errorf("serve self = %d, want -65", got)
	}
}

func TestCoverage(t *testing.T) {
	tr := newTracer()
	for req := 1; req <= 3; req++ {
		chainSpans(tr, req, 1000, 900, 850, 10, 800, 5)
	}
	if got := coverage(tr.spans); math.Abs(got-1) > 1e-12 {
		t.Errorf("consistent chains cover %g, want 1", got)
	}
	// One request whose inner call outran its parent: the per-layer
	// median absorbs it, so coverage stays exact.
	chainSpans(tr, 4, 1000, 900, 850, 10, 900, 5)
	if got := coverage(tr.spans); math.Abs(got-1) > 1e-12 {
		t.Errorf("coverage with one inconsistent request = %g, want 1", got)
	}
	// When a layer's typical self time is negative it is clipped, and the
	// excess shows as coverage above 1.
	tr2 := newTracer()
	chainSpans(tr2, 1, 1000, 900, 850, 10, 900, 5)
	if got := coverage(tr2.spans); math.Abs(got-1.065) > 1e-12 {
		t.Errorf("clipped coverage = %g, want 1.065", got)
	}
	if coverage(nil) != 0 {
		t.Error("coverage of no spans should be 0")
	}
}
