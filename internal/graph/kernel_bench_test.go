package graph

import (
	"math/rand"
	"testing"

	"gnnvault/internal/mat"
)

// Kernel micro-benchmarks for the serving hot loops: the sparse product
// over a power-law adjacency (gather-bound) and its fused-epilogue form.
// Run with:
//
//	go test -run '^$' -bench Kernel ./internal/graph/
func benchAdj(n int) *NormAdjacency {
	g := PreferentialAttachment(PreferentialAttachmentConfig{Nodes: n, EdgesPerNode: 8, Seed: 1})
	return Normalize(g)
}

func benchDense(rows, cols int) *mat.Matrix {
	rng := rand.New(rand.NewSource(2))
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkKernelSpMM(b *testing.B) {
	const n, d = 100_000, 64
	adj := benchAdj(n)
	h := benchDense(n, d)
	out := mat.New(n, d)
	b.SetBytes(int64(adj.NNZ()) * int64(d) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj.MulDenseWorkersInto(out, h, 1)
	}
}

func BenchmarkKernelSpMMFused(b *testing.B) {
	const n, d = 100_000, 64
	adj := benchAdj(n)
	h := benchDense(n, d)
	bias := benchDense(1, d).Data
	out := mat.New(n, d)
	b.SetBytes(int64(adj.NNZ()) * int64(d) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj.MulDenseBiasReLUInto(out, h, bias, nil, true, 1)
	}
}

func BenchmarkKernelMatMul(b *testing.B) {
	const n, k, p = 100_000, 64, 32
	a := benchDense(n, k)
	w := benchDense(k, p)
	out := mat.New(n, p)
	b.SetBytes(int64(n) * k * p * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMulWorkersInto(out, a, w, 1)
	}
}

// BenchmarkKernelSpMMPrecision prices the fused sparse product per
// precision at the served shapes: a Table I-sized graph (1200 nodes,
// mean degree ≈ 4) at hidden width 128, and the 20k-node power-law
// serving vault at width 32. H is post-ReLU (about half exact zeros),
// every kernel runs serially with the bias+ReLU epilogue, and GMAC/s
// counts nnz × width multiply-accumulates per second. Run with:
//
//	go test -run '^$' -bench KernelSpMMPrecision -cpu 1 ./internal/graph/
func BenchmarkKernelSpMMPrecision(b *testing.B) {
	shapes := []struct {
		name          string
		n, perNode, d int
	}{
		{"1200x128", 1200, 2, 128},
		{"20000x32", 20000, 8, 32},
	}
	for _, s := range shapes {
		adj := Normalize(PreferentialAttachment(PreferentialAttachmentConfig{Nodes: s.n, EdgesPerNode: s.perNode, Seed: 1}))
		h := benchDense(s.n, s.d)
		for i, v := range h.Data {
			h.Data[i] = max(v, 0)
		}
		bias := benchDense(1, s.d).Data
		report := func(b *testing.B) {
			b.ReportMetric(float64(adj.NNZ())*float64(s.d)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		}

		out := mat.New(s.n, s.d)
		b.Run(s.name+"/fp64", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adj.MulDenseBiasReLUInto(out, h, bias, nil, true, 1)
			}
			report(b)
		})

		h32, out32 := mat.New32(s.n, s.d), mat.New32(s.n, s.d)
		mat.Convert32Into(h32, h)
		bias32 := make([]float32, s.d)
		for j, v := range bias {
			bias32[j] = float32(v)
		}
		b.Run(s.name+"/fp32", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adj.MulDense32BiasReLUInto(out32, h32, bias32, nil, true, 1)
			}
			report(b)
		})

		hScale := mat.SymmetricScale(h.MaxAbs())
		valScale := mat.SymmetricScale(adj.ValMaxAbs())
		hq, outq := mat.NewI8(s.n, s.d), mat.NewI8(s.n, s.d)
		mat.QuantizeI8Into(hq, h, hScale)
		deq, dstScales := make([]float64, s.d), make([]float64, s.d)
		for j := range deq {
			deq[j], dstScales[j] = hScale*valScale, 0.05
		}
		acc := make([]int32, s.d)
		b.Run(s.name+"/int8", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adj.MulDenseI8EpilogueRangeInto(outq, hq, 0, s.n, valScale, deq, bias, nil, nil, true, dstScales, acc, nil)
			}
			report(b)
		})
	}
}
