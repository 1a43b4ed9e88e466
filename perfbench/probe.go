package main

import (
	"math/rand"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/nn"
)

// kernel is one kernel call a served pass executes: a dense feature
// transform rows×in·in×out, or a sparse aggregation over adj producing
// rows×out. The shapes come from the deployed model's weight matrices
// and the adjacency the pass aggregates over.
type kernel struct {
	spmm    bool
	int8    bool
	rows    int
	in, out int
	adj     *graph.NormAdjacency
	workers int // 0 = parallel normal-world kernel, 1 = serial in-enclave
}

// ops is the kernel's arithmetic operation count (multiply and add each
// count one).
func (k kernel) ops() float64 {
	if k.spmm {
		return 2 * float64(k.adj.NNZ()) * float64(k.out)
	}
	return 2 * float64(k.rows) * float64(k.in) * float64(k.out)
}

// bytes is the kernel's traffic computed from tensor sizes (not measured):
// for an SpMM the CSR values and column indices, one gathered input row
// per non-zero, and the written output; for a MatMul both operands and
// the output once each.
func (k kernel) bytes() float64 {
	elem := 8.0
	if k.int8 {
		elem = 1
	}
	if k.spmm {
		nnz := float64(k.adj.NNZ())
		return nnz*(8+8) + (nnz+float64(k.rows))*float64(k.out)*elem
	}
	return (float64(k.rows)*float64(k.in) + float64(k.in)*float64(k.out) + float64(k.rows)*float64(k.out)) * elem
}

// modelKernels lists the kernels one pass of (bb, rec) executes over rows
// nodes: per backbone GCN layer a parallel fp64 MatMul then SpMM over the
// public adjacency, per rectifier layer a serial MatMul then SpMM over
// the private adjacency at the rectifier's precision. This mirrors how
// core lowers a GCN conv (MatMul, then SpMM with the epilogue fused).
func modelKernels(bb *core.Backbone, rec *core.Rectifier, pub, priv *graph.NormAdjacency, rows int, recInt8 bool) []kernel {
	var ks []kernel
	for _, l := range bb.Model.Layers {
		if c, ok := l.(*nn.GCNConv); ok {
			ks = append(ks,
				kernel{rows: rows, in: c.InDim, out: c.OutDim},
				kernel{spmm: true, rows: rows, out: c.OutDim, adj: pub})
		}
	}
	for _, p := range rec.Params() {
		if p.Name != "W" {
			continue
		}
		ks = append(ks,
			kernel{int8: recInt8, rows: rows, in: p.W.Rows, out: p.W.Cols, workers: 1},
			kernel{int8: recInt8, spmm: true, rows: rows, out: p.W.Cols, adj: priv, workers: 1})
	}
	return ks
}

// withPrecision returns ks with every in-enclave (serial) kernel switched
// to the given precision: the same shapes probed at the other tier.
func withPrecision(ks []kernel, int8 bool) []kernel {
	out := append([]kernel(nil), ks...)
	for i := range out {
		if out[i].workers == 1 {
			out[i].int8 = int8
		}
	}
	return out
}

// prober owns reusable operand buffers for kernel probes, sized on demand
// and filled with seeded values.
type prober struct {
	rng  *rand.Rand
	f64  map[[2]int]*mat.Matrix
	i8   map[[2]int]*mat.MatrixI8
	acc  []int32
	vecs map[int][]float64
}

func newProber(seed int64) *prober {
	return &prober{
		rng: rand.New(rand.NewSource(seed)),
		f64: map[[2]int]*mat.Matrix{}, i8: map[[2]int]*mat.MatrixI8{},
		vecs: map[int][]float64{},
	}
}

// buffer returns a rows×cols operand viewed over a seeded backing array
// shared by every call with the same slot and width; slot separates
// operands one call needs at once.
func (p *prober) buffer(rows, cols, slot int) *mat.Matrix {
	key := [2]int{slot, cols}
	m := p.f64[key]
	if m == nil || m.Rows < rows {
		m = mat.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = p.rng.Float64()*2 - 1
		}
		p.f64[key] = m
	}
	return &mat.Matrix{Rows: rows, Cols: cols, Data: m.Data[:rows*cols]}
}

func (p *prober) bufferI8(rows, cols, slot int) *mat.MatrixI8 {
	key := [2]int{slot, cols}
	m := p.i8[key]
	if m == nil || m.Rows < rows {
		m = mat.NewI8(rows, cols)
		for i := range m.Data {
			m.Data[i] = int8(p.rng.Intn(255) - 127)
		}
		p.i8[key] = m
	}
	return &mat.MatrixI8{Rows: rows, Cols: cols, Data: m.Data[:rows*cols]}
}

// scales returns a length-n vector of positive scales.
func (p *prober) scales(n int) []float64 {
	v := p.vecs[n]
	if v == nil {
		v = make([]float64, n)
		for i := range v {
			v[i] = (0.5 + p.rng.Float64()) / 127
		}
		p.vecs[n] = v
	}
	return v
}

// run executes k once and returns its wall time.
func (p *prober) run(k kernel) time.Duration {
	if len(p.acc) < k.out {
		p.acc = make([]int32, k.out)
	}
	if k.spmm {
		cols := k.adj.ColCount()
		if k.int8 {
			h, dst := p.bufferI8(cols, k.out, 0), p.bufferI8(k.rows, k.out, 1)
			sc := p.scales(k.out)
			valScale := mat.SymmetricScale(k.adj.ValMaxAbs())
			start := time.Now()
			k.adj.MulDenseI8EpilogueRangeInto(dst, h, 0, k.rows, valScale, sc, nil, nil, nil, true, sc, p.acc, nil)
			return time.Since(start)
		}
		h, dst := p.buffer(cols, k.out, 0), p.buffer(k.rows, k.out, 1)
		start := time.Now()
		k.adj.MulDenseBiasReLUInto(dst, h, nil, nil, true, k.workers)
		return time.Since(start)
	}
	if k.int8 {
		a, w, dst := p.bufferI8(k.rows, k.in, 0), p.bufferI8(k.in, k.out, 2), p.bufferI8(k.rows, k.out, 1)
		sc := p.scales(k.out)
		start := time.Now()
		mat.MatMulI8EpilogueInto(dst, a, w, sc, nil, nil, nil, true, sc, p.acc, nil)
		return time.Since(start)
	}
	a, w, dst := p.buffer(k.rows, k.in, 0), p.buffer(k.in, k.out, 2), p.buffer(k.rows, k.out, 1)
	start := time.Now()
	mat.MatMulBiasReLUInto(dst, a, w, nil, nil, false, k.workers)
	return time.Since(start)
}

// kernelTotals accumulates probe results per kernel family.
type kernelTotals struct {
	ops, bytes, ns [4]float64 // indexed by family()
	calls          [4]int
}

// Kernel families, the per-layer mat/graph metrics.
const (
	famMatMulFP64 = iota
	famMatMulInt8
	famSpMMFP64
	famSpMMInt8
)

func (k kernel) family() int {
	f := famMatMulFP64
	if k.spmm {
		f = famSpMMFP64
	}
	if k.int8 {
		f++
	}
	return f
}

func (t *kernelTotals) add(k kernel, d time.Duration) {
	f := k.family()
	t.ops[f] += k.ops()
	t.bytes[f] += k.bytes()
	t.ns[f] += float64(d.Nanoseconds())
	t.calls[f]++
}

// rate returns ops (or bytes) per ns — numerically giga-ops per second or
// GB/s — for one family, 0 when it was never probed.
func (t *kernelTotals) rate(f int, bytes bool) float64 {
	if t.ns[f] == 0 {
		return 0
	}
	if bytes {
		return t.bytes[f] / t.ns[f]
	}
	return t.ops[f] / t.ns[f]
}

// summary reports each probed family per call: wall ns, operation count
// and bytes moved, the last computed from tensor sizes.
func (t *kernelTotals) summary() map[string]map[string]float64 {
	names := [4]string{"matmul_fp64", "matmul_int8", "spmm_fp64", "spmm_int8"}
	out := map[string]map[string]float64{}
	for f, name := range names {
		if n := float64(t.calls[f]); n > 0 {
			out[name] = map[string]float64{
				"calls": n, "ns_per_call": t.ns[f] / n,
				"ops_per_call": t.ops[f] / n, "computed_bytes_per_call": t.bytes[f] / n,
			}
		}
	}
	return out
}
