package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// skipUnlessUnfused skips off amd64, where the compiler may fuse the Go
// bodies' multiply-adds into FMAs: there the Go bodies legitimately round
// differently from the two-rounding reference below.
func skipUnlessUnfused(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("%s may fuse multiply-adds; the two-rounding reference does not apply", runtime.GOARCH)
	}
}

// refAxpy is the definition every axpy body must reproduce: per element,
// y (or, for set, the first product) plus each scaled stream in order,
// with every product and every sum rounded to float64 on its own — the
// explicit conversions forbid the compiler from fusing them.
func refAxpy(set bool, as []float64, xs [][]float64, y []float64) {
	for j := range y {
		acc, s := y[j], 0
		if set {
			acc, s = float64(as[0]*xs[0][j]), 1
		}
		for ; s < len(as); s++ {
			acc = float64(acc + float64(as[s]*xs[s][j]))
		}
		y[j] = acc
	}
}

// sameFloat reports bitwise equality, counting any two NaNs as equal:
// which NaN payload survives an operation on two NaNs depends on operand
// order in the instruction, which neither body promises.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// axpyKernel runs one kernel of the family over streams as/xs into y.
type axpyKernel struct {
	name    string
	streams int
	set     bool
	run     func(as []float64, xs [][]float64, y []float64)
}

var axpyKernels = []axpyKernel{
	{"Axpy", 1, false, func(as []float64, xs [][]float64, y []float64) { Axpy(as[0], xs[0], y) }},
	{"AxpySet", 1, true, func(as []float64, xs [][]float64, y []float64) { AxpySet(as[0], xs[0], y) }},
	{"Axpy2", 2, false, func(as []float64, xs [][]float64, y []float64) { Axpy2(as[0], xs[0], as[1], xs[1], y) }},
	{"Axpy2Set", 2, true, func(as []float64, xs [][]float64, y []float64) { Axpy2Set(as[0], xs[0], as[1], xs[1], y) }},
	{"Axpy4", 4, false, func(as []float64, xs [][]float64, y []float64) {
		Axpy4(as[0], xs[0], as[1], xs[1], as[2], xs[2], as[3], xs[3], y)
	}},
	{"Axpy4Set", 4, true, func(as []float64, xs [][]float64, y []float64) {
		Axpy4Set(as[0], xs[0], as[1], xs[1], as[2], xs[2], as[3], xs[3], y)
	}},
}

// checkAxpyKernels runs every kernel over n elements of the given
// operands through the dispatched body and the pure-Go body and compares
// both with refAxpy. The destination sits inside a larger buffer whose
// guard elements must survive, so a body that writes past n fails.
func checkAxpyKernels(t *testing.T, n int, as []float64, xs [][]float64, y0 []float64) {
	t.Helper()
	const guard = 3
	for _, k := range axpyKernels {
		want := append([]float64(nil), y0[:n]...)
		refAxpy(k.set, as[:k.streams], xs, want)
		for _, body := range []string{"dispatched", "go"} {
			buf := make([]float64, n+guard)
			copy(buf, y0[:n])
			for g := n; g < n+guard; g++ {
				buf[g] = 12345
			}
			if body == "go" {
				restore := forceGoBodies()
				k.run(as, xs, buf[:n])
				restore()
			} else {
				k.run(as, xs, buf[:n])
			}
			for j := 0; j < n; j++ {
				if !sameFloat(buf[j], want[j]) {
					t.Fatalf("%s (%s body) n=%d elem %d = %v (%#x), reference %v (%#x)",
						k.name, body, n, j, buf[j], math.Float64bits(buf[j]), want[j], math.Float64bits(want[j]))
				}
			}
			for g := n; g < n+guard; g++ {
				if buf[g] != 12345 {
					t.Fatalf("%s (%s body) n=%d: wrote guard element %d", k.name, body, n, g)
				}
			}
		}
	}
}

// edgeValue draws from the values that stress rounding: magnitudes from
// 1e-10 to 1e10, signed zeros, subnormals, and infinities.
func edgeValue(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch r := rng.Intn(20); {
	case r == 0:
		return sign * 0
	case r == 1:
		return sign * math.Inf(1)
	case r == 2:
		return sign * math.Float64frombits(uint64(rng.Int63n(1<<52-1)+1)) // subnormal
	case r == 3:
		return sign * math.SmallestNonzeroFloat64
	default:
		return sign * math.Pow(10, -10+20*rng.Float64())
	}
}

// TestAxpyBodiesMatchReference pins both bodies of every axpy kernel to
// the two-rounding reference at every length up to 70 (so every unrolled
// block and every tail length runs) over ordinary and edge values.
func TestAxpyBodiesMatchReference(t *testing.T) {
	skipUnlessUnfused(t)
	if !useAVX2 {
		t.Log("CPU lacks AVX2: only the pure-Go bodies are checked")
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 6; trial++ {
			draw := rng.NormFloat64
			if trial >= 2 {
				draw = func() float64 { return edgeValue(rng) }
			}
			as := make([]float64, 4)
			for i := range as {
				as[i] = draw()
			}
			xs := make([][]float64, 4)
			for s := range xs {
				xs[s] = make([]float64, n)
				for j := range xs[s] {
					xs[s][j] = draw()
				}
			}
			y0 := make([]float64, n)
			for j := range y0 {
				y0[j] = draw()
			}
			checkAxpyKernels(t, n, as, xs, y0)
		}
	}
}

// FuzzAxpyKernels feeds raw float64 bit patterns — NaN payloads,
// subnormals, infinities, signed zeros — through every axpy kernel and
// checks both bodies against the two-rounding reference.
func FuzzAxpyKernels(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(5), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(37), []byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, n uint8, bits []byte) {
		skipUnlessUnfused(t)
		size := int(n) % 71
		next := func() func() float64 {
			i := 0
			return func() float64 {
				if len(bits) < 8 {
					return 0
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(bits[i:]))
				if i += 8; i+8 > len(bits) {
					i = 0
				}
				return v
			}
		}()
		as := make([]float64, 4)
		for i := range as {
			as[i] = next()
		}
		xs := make([][]float64, 4)
		for s := range xs {
			xs[s] = make([]float64, size)
			for j := range xs[s] {
				xs[s][j] = next()
			}
		}
		y0 := make([]float64, size)
		for j := range y0 {
			y0[j] = next()
		}
		checkAxpyKernels(t, size, as, xs, y0)
	})
}

// TestAxpyKernelsAllocFree holds the dispatched kernels to zero heap
// allocations. The operands are arrays local to each run, so a kernel
// whose slice arguments escaped — an assembly declaration missing
// //go:noescape — would move them to the heap on every run.
func TestAxpyKernelsAllocFree(t *testing.T) {
	b := New(8, 40)
	allocs := testing.AllocsPerRun(100, func() {
		var x1, x2, x3, x4, y1 [40]float64
		arow := [8]float64{1, 0, 2, 3, 0, 4, 5, 6}
		Axpy(2, x1[:], y1[:])
		AxpySet(2, x1[:], y1[:])
		Axpy2(2, x1[:], 3, x2[:], y1[:])
		Axpy2Set(2, x1[:], 3, x2[:], y1[:])
		Axpy4(2, x1[:], 3, x2[:], 4, x3[:], 5, x4[:], y1[:])
		Axpy4Set(2, x1[:], 3, x2[:], 4, x3[:], 5, x4[:], y1[:])
		matMulRow(arow[:], b, y1[:], 8, 40)
	})
	if allocs != 0 {
		t.Fatalf("axpy kernels allocate %.1f times per run, want 0", allocs)
	}
}

// matMulRowQuadSkip is the previous matMulRow, kept as the reference for
// compaction: it feeds only quads of adjacent non-zero k through Axpy4
// and every other non-zero through Axpy.
func matMulRowQuadSkip(arow []float64, b *Matrix, orow []float64, n, p int) {
	k, inited := 0, false
	for ; k+4 <= n; k += 4 {
		a1, a2, a3, a4 := arow[k], arow[k+1], arow[k+2], arow[k+3]
		if a1 != 0 && a2 != 0 && a3 != 0 && a4 != 0 {
			if inited {
				Axpy4(a1, b.Data[k*p:(k+1)*p], a2, b.Data[(k+1)*p:(k+2)*p],
					a3, b.Data[(k+2)*p:(k+3)*p], a4, b.Data[(k+3)*p:(k+4)*p], orow)
			} else {
				Axpy4Set(a1, b.Data[k*p:(k+1)*p], a2, b.Data[(k+1)*p:(k+2)*p],
					a3, b.Data[(k+2)*p:(k+3)*p], a4, b.Data[(k+3)*p:(k+4)*p], orow)
				inited = true
			}
			continue
		}
		for j := k; j < k+4; j++ {
			if av := arow[j]; av != 0 {
				if inited {
					Axpy(av, b.Data[j*p:(j+1)*p], orow)
				} else {
					AxpySet(av, b.Data[j*p:(j+1)*p], orow)
					inited = true
				}
			}
		}
	}
	for ; k < n; k++ {
		if av := arow[k]; av != 0 {
			if inited {
				Axpy(av, b.Data[k*p:(k+1)*p], orow)
			} else {
				AxpySet(av, b.Data[k*p:(k+1)*p], orow)
				inited = true
			}
		}
	}
	if !inited {
		clear(orow)
	}
}

// TestMatMulRowCompactionMatchesQuadSkip pins the compacted matMulRow to
// the bits of the quad-skip version it replaced, across input densities
// from all-zero to fully dense, with -0 entries (which both skip) and
// destinations pre-filled with garbage (which both must overwrite).
func TestMatMulRowCompactionMatchesQuadSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 13, 64, 163} {
		for _, p := range []int{1, 3, 4, 7, 16, 33} {
			b := fill(rng, New(n, p))
			for _, density := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 1} {
				arow := make([]float64, n)
				for k := range arow {
					switch {
					case rng.Float64() < density:
						arow[k] = rng.NormFloat64()
					case rng.Intn(2) == 0:
						arow[k] = math.Copysign(0, -1)
					}
				}
				want, got := make([]float64, p), make([]float64, p)
				for j := range want {
					want[j], got[j] = rng.NormFloat64(), rng.NormFloat64()
				}
				matMulRowQuadSkip(arow, b, want, n, p)
				matMulRow(arow, b, got, n, p)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("n=%d p=%d density=%.2f: elem %d = %v, quad-skip %v", n, p, density, j, got[j], want[j])
					}
				}
			}
		}
	}
}
