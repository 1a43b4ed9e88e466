package mat

import (
	"fmt"
	"runtime"
)

// parallelThreshold is the number of multiply-accumulate operations below
// which MatMul stays single-threaded; spawning goroutines for tiny products
// costs more than the work itself.
const parallelThreshold = 1 << 16

// maxWorkers bounds the goroutine fan-out of parallel kernels. Tests may
// lower it; 0 means use GOMAXPROCS.
var maxWorkers = 0

// SetMaxWorkers overrides the *process-global default* worker count used by
// parallel kernels (here and in graph's sparse products). n <= 0 restores
// the default (GOMAXPROCS).
//
// Deprecated: the global is racy when concurrent servers want different
// budgets — it survives only as the default that a zero per-call budget
// resolves to. New code should carry an explicit worker budget instead:
// the Workers variants of the kernels (MatMulWorkersInto, graph's
// MulDenseWorkersInto), nn's LayerWorkspace.Workers, exec.Config.Workers,
// and core.PlanConfig.Workers all thread one through per plan.
func SetMaxWorkers(n int) { maxWorkers = n }

// WorkerCount returns the effective parallel worker count for a kernel
// spanning rows rows, honouring SetMaxWorkers. Exported so sibling packages
// (graph's sparse kernels) share the same knob.
func WorkerCount(rows int) int { return workerCount(rows) }

func workerCount(rows int) int {
	return resolveWorkers(0, rows)
}

// ResolveWorkers maps a per-call worker budget to an effective count for a
// kernel spanning rows rows (budget <= 0 means the process-global default;
// the result is clamped to [1, rows]). Exported so sibling packages' kernels
// (graph's sparse products) resolve budgets by the same rule.
func ResolveWorkers(budget, rows int) int { return resolveWorkers(budget, rows) }

// resolveWorkers maps a per-call worker budget to an effective count for a
// kernel spanning rows rows: budget <= 0 falls back to the process-global
// default (SetMaxWorkers, then GOMAXPROCS), 1 means inline on the calling
// goroutine, and any budget is clamped to rows.
func resolveWorkers(budget, rows int) int {
	w := budget
	if w <= 0 {
		w = maxWorkers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// MatMul returns a·b. It panics if the inner dimensions disagree.
//
// The kernel is cache-blocked over k and parallelised over row bands of a,
// which is the dominant pattern in GNN inference (tall-skinny activations
// times small weight matrices). This is the allocating wrapper over
// MatMulInto.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul inner dimension mismatch %s · %s", a.Shape(), b.Shape()))
	}
	out := New(a.Rows, b.Cols)
	matMulInto(out, a, b, 0)
	return out
}

// MatMulSerial computes a·b on the calling goroutine only. The enclave
// simulator uses it to model single-threaded in-enclave execution.
func MatMulSerial(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMulSerial inner dimension mismatch %s · %s", a.Shape(), b.Shape()))
	}
	out := New(a.Rows, b.Cols)
	matMulInto(out, a, b, 1)
	return out
}

// The row kernel below computes out = a·b one output row at a time, streaming through contiguous rows of b and out.
// The destination needs no prior zeroing: each output row is initialised
// by its first axpy group (Set form) and all-zero input rows are cleared
// explicitly. Zero entries of a are skipped — post-ReLU activations are
// roughly half zeros, and each skip saves a whole row-axpy — and the
// surviving non-zeros are fed through the multi-stream axpy kernels four
// at a time, which quarters the traffic over the output row while
// keeping the per-element accumulation order (and bits) of the
// one-at-a-time loop. The banded driver over these kernels lives in
// matMulEpilogueRange (fused.go) — one copy, epilogue optional.

// matMulRow computes one output row, skipping the zero entries of arow:
// the non-zeros are collected in k order and fed four at a time through
// the four-stream kernel (the first group through its Set form), and the
// last one to three go one at a time. Grouping any four non-zeros, not
// only four adjacent ones, keeps post-ReLU and bag-of-words rows on the
// four-stream kernel, and since Axpy4 is four sequential Axpy calls bit
// for bit, every output element is still accumulated in the order of the
// one-at-a-time loop. All-zero rows are cleared.
func matMulRow(arow []float64, b *Matrix, orow []float64, n, p int) {
	var ks [4]int
	m, inited := 0, false
	for k, av := range arow[:n] {
		if av == 0 {
			continue
		}
		ks[m] = k
		if m++; m < 4 {
			continue
		}
		m = 0
		k1, k2, k3, k4 := ks[0], ks[1], ks[2], ks[3]
		if inited {
			Axpy4(arow[k1], b.Data[k1*p:(k1+1)*p], arow[k2], b.Data[k2*p:(k2+1)*p],
				arow[k3], b.Data[k3*p:(k3+1)*p], arow[k4], b.Data[k4*p:(k4+1)*p], orow)
		} else {
			Axpy4Set(arow[k1], b.Data[k1*p:(k1+1)*p], arow[k2], b.Data[k2*p:(k2+1)*p],
				arow[k3], b.Data[k3*p:(k3+1)*p], arow[k4], b.Data[k4*p:(k4+1)*p], orow)
			inited = true
		}
	}
	for _, k := range ks[:m] {
		if inited {
			Axpy(arow[k], b.Data[k*p:(k+1)*p], orow)
		} else {
			AxpySet(arow[k], b.Data[k*p:(k+1)*p], orow)
			inited = true
		}
	}
	if !inited {
		clear(orow)
	}
}

// MatMulTransA returns aᵀ·b without materialising the transpose of a.
// Shapes: a is n×m, b is n×p, result is m×p. This is the gradient kernel
// dW = Hᵀ·dY in dense and GCN layers. Allocating wrapper over
// MatMulTransAInto (process-global worker default).
func MatMulTransA(a, b *Matrix) *Matrix {
	return MatMulTransAWorkers(a, b, 0)
}

// MatMulTransAWorkers is MatMulTransA under an explicit per-call worker
// budget (MatMulWorkersInto semantics) — the form the training backward
// passes use so a layer's Serial mode never consults the deprecated
// process-global worker count.
func MatMulTransAWorkers(a, b *Matrix, workers int) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAWorkersInto(out, a, b, workers)
	return out
}

// MatMulTransB returns a·bᵀ without materialising the transpose of b.
// Shapes: a is n×m, b is p×m, result is n×p. This is the gradient kernel
// dH = dY·Wᵀ in dense and GCN layers. Allocating wrapper over
// MatMulTransBInto (process-global worker default).
func MatMulTransB(a, b *Matrix) *Matrix {
	return MatMulTransBWorkers(a, b, 0)
}

// MatMulTransBWorkers is MatMulTransB under an explicit per-call worker
// budget (MatMulWorkersInto semantics).
func MatMulTransBWorkers(a, b *Matrix, workers int) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBWorkersInto(out, a, b, workers)
	return out
}
