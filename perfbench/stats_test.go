package main

import (
	"math"
	"reflect"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
	// Failed requests enter the latency sample as +Inf and must push the
	// tail, not vanish from it.
	if got := quantile([]float64{1, 2, math.Inf(1)}, 1); !math.IsInf(got, 1) {
		t.Errorf("tail over a failed request = %g, want +Inf", got)
	}
}

func TestZipfDeterministic(t *testing.T) {
	draw := func(seed int64) []int {
		p := newZipfPicker(seed, 1.1, 9)
		out := make([]int, 200)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different Zipf sequences")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds gave the same Zipf sequence")
	}
	counts := make([]int, 9)
	for _, v := range a {
		if v < 0 || v >= 9 {
			t.Fatalf("draw %d outside [0,9)", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[8] {
		t.Errorf("index 0 should be the most popular: counts %v", counts)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a, b := poissonSchedule(3, 100, 5000), poissonSchedule(3, 100, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(4, 100, 5000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if a[0] != 0 {
		t.Errorf("schedule starts at %g, want 0", a[0])
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	// 5000 arrivals at 100/s span ~50 s; the rate is within a few percent.
	if rate := float64(len(a)-1) / a[len(a)-1]; math.Abs(rate-100) > 5 {
		t.Errorf("empirical rate %.1f/s, want ~100/s", rate)
	}
}

func TestSeedPickerDeterministic(t *testing.T) {
	endpoints := []int{0, 0, 0, 0, 1, 2, 3}
	draw := func(seed int64) [][]int {
		p := newSeedPicker(seed, 50, 8, 0.5, endpoints)
		out := make([][]int, 100)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	a := draw(11)
	if !reflect.DeepEqual(a, draw(11)) {
		t.Fatal("same seed gave different seed sets")
	}
	if reflect.DeepEqual(a, draw(12)) {
		t.Fatal("different seeds gave the same seed sets")
	}
	hub := 0
	for _, set := range a {
		if len(set) < 1 || len(set) > 8 {
			t.Fatalf("seed set of %d nodes, want 1..8", len(set))
		}
		seen := map[int]bool{}
		for _, u := range set {
			if u < 0 || u >= 50 || seen[u] {
				t.Fatalf("bad seed set %v", set)
			}
			seen[u] = true
		}
		if seen[0] {
			hub++
		}
	}
	if hub < 50 {
		t.Errorf("hub node 0 in only %d of 100 sets; degree-biased picks should favour it", hub)
	}
}

func TestRounds(t *testing.T) {
	starts := []float64{0, 0.9, 1, 2.5, 3.99, 4, 7}
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := rounds(starts, xs, 4, 4)
	want := [][]float64{{1, 2}, {3}, {4}, {5, 6, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rounds = %v, want %v", got, want)
	}
}

func TestRoundQuantilesOutvoteOneBurstRound(t *testing.T) {
	calm := []float64{1, 2, 3, 4, 5}
	burst := []float64{50, 60, 70, math.Inf(1), math.Inf(1)}
	got := roundQuantiles([][]float64{calm, calm, burst, calm, nil}, 0.5)
	if !reflect.DeepEqual(got, []float64{3, 3, 70, 3}) {
		t.Fatalf("round p50s = %v, want [3 3 70 3] (the empty round left out)", got)
	}
	if m := median(got); m != 3 {
		t.Errorf("median of round p50s = %g, want 3", m)
	}
}
