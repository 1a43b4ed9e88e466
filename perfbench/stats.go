package main

import (
	"math"
	"math/rand"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample has no quantile and yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo] // exact rank; also keeps +Inf (failed requests) from becoming NaN
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rounds splits a phase of d seconds into n equal rounds by each
// sample's start time (seconds from the phase start) and returns each
// round's samples. A start at or past d falls into the last round.
func rounds(startS, xs []float64, d float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i, t := range startS {
		r := min(max(int(t/d*float64(n)), 0), n-1)
		out[r] = append(out[r], xs[i])
	}
	return out
}

// roundQuantiles returns each round's q-quantile latency, leaving out
// rounds without requests.
func roundQuantiles(byRound [][]float64, q float64) []float64 {
	var out []float64
	for _, r := range byRound {
		if len(r) > 0 {
			out = append(out, quantile(r, q))
		}
	}
	return out
}

// tailPercentiles are the candidate tail cuts, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten samples beyond it in a sample of n, or 0 when even the median
// has fewer than ten samples above it.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// zipfPicker draws indices in [0, n) with Zipf(s) popularity: index 0 is
// the most popular. The sequence is a pure function of the seed.
type zipfPicker struct{ z *rand.Zipf }

func newZipfPicker(seed int64, s float64, n int) zipfPicker {
	return zipfPicker{rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))}
}

func (p zipfPicker) next() int { return int(p.z.Uint64()) }

// poissonSchedule returns n arrival offsets in seconds of a Poisson
// process at rate per second, starting at 0. The schedule is a pure
// function of the seed.
func poissonSchedule(seed int64, rate float64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	due := make([]float64, n)
	t := 0.0
	for i := range due {
		due[i] = t
		t += rng.ExpFloat64() / rate
	}
	return due
}

// seedPicker draws node-query seed sets of 1..maxSeeds distinct nodes
// from a fixed mix: each seed is uniform over the graph with probability
// uniformShare, otherwise degree-biased (the endpoint of a uniformly drawn
// edge, so hubs are picked in proportion to their degree). The sequence
// is a pure function of the seed and the edge list.
type seedPicker struct {
	rng          *rand.Rand
	n            int
	maxSeeds     int
	uniformShare float64
	endpoints    []int // one entry per directed edge: its source node
}

func newSeedPicker(seed int64, n, maxSeeds int, uniformShare float64, endpoints []int) *seedPicker {
	return &seedPicker{
		rng: rand.New(rand.NewSource(seed)), n: n, maxSeeds: maxSeeds,
		uniformShare: uniformShare, endpoints: endpoints,
	}
}

func (p *seedPicker) next() []int {
	k := 1 + p.rng.Intn(p.maxSeeds)
	out := make([]int, 0, k)
	for len(out) < k {
		var u int
		if p.rng.Float64() < p.uniformShare || len(p.endpoints) == 0 {
			u = p.rng.Intn(p.n)
		} else {
			u = p.endpoints[p.rng.Intn(len(p.endpoints))]
		}
		dup := false
		for _, v := range out {
			dup = dup || v == u
		}
		if !dup {
			out = append(out, u)
		}
	}
	return out
}
