package mat

import (
	"math/rand"
	"testing"
)

// Per-precision dense-product microbenchmarks at the served shapes: the
// Table I stand-ins' first layer (1200 rows × 163 features × 128 hidden
// covers the 600–1200 × 100–163 range) and the power-law serving vault
// (20k × 64 × 32). Inputs are post-ReLU — about half exact zeros — and
// every kernel runs serially with the bias+ReLU epilogue, as the exec
// engine issues it inside the enclave. fp64 is the dispatched body (AVX2
// where the CPU has it), fp64-go the pure-Go reference body. Run with:
//
//	go test -run '^$' -bench KernelMatMul -cpu 1 ./internal/mat/
var kernelShapes = []struct {
	name    string
	n, k, p int
}{
	{"1200x163x128", 1200, 163, 128},
	{"20000x64x32", 20000, 64, 32},
}

// reluRand returns an r×c matrix of ReLU(N(0,1)) entries.
func reluRand(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = max(rng.NormFloat64(), 0)
	}
	return m
}

// reportMACs reports the dense-equivalent multiply-accumulate rate, so
// rows are comparable across precisions and shapes.
func reportMACs(b *testing.B, n, k, p int) {
	b.ReportMetric(float64(n*k*p)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}

func BenchmarkKernelMatMul(b *testing.B) {
	for _, s := range kernelShapes {
		rng := rand.New(rand.NewSource(1))
		a := reluRand(rng, s.n, s.k)
		w := fill(rng, New(s.k, s.p))
		bias := fill(rng, New(1, s.p)).Data
		dst := New(s.n, s.p)
		fp64 := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulBiasReLUInto(dst, a, w, bias, nil, true, 1)
			}
			reportMACs(b, s.n, s.k, s.p)
		}
		b.Run(s.name+"/fp64", fp64)
		b.Run(s.name+"/fp64-go", func(b *testing.B) {
			defer forceGoBodies()()
			fp64(b)
		})

		a32, w32, dst32 := New32(s.n, s.k), New32(s.k, s.p), New32(s.n, s.p)
		Convert32Into(a32, a)
		Convert32Into(w32, w)
		bias32 := make([]float32, s.p)
		for j, v := range bias {
			bias32[j] = float32(v)
		}
		b.Run(s.name+"/fp32", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMul32BiasReLUInto(dst32, a32, w32, bias32, nil, true, 1)
			}
			reportMACs(b, s.n, s.k, s.p)
		})

		aq, dstq := NewI8(s.n, s.k), NewI8(s.n, s.p)
		QuantizeI8Into(aq, a, SymmetricScale(a.MaxAbs()))
		wq, deq := QuantizeColumnsI8(w)
		dstScales := make([]float64, s.p)
		for j := range dstScales {
			dstScales[j] = 0.05
		}
		acc := make([]int32, s.p)
		b.Run(s.name+"/int8", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulI8EpilogueInto(dstq, aq, wq, deq, bias, nil, nil, true, dstScales, acc, nil)
			}
			reportMACs(b, s.n, s.k, s.p)
		})
	}
}
