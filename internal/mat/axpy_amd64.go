package mat

import "gnnvault/internal/hostcpu"

// useAVX2 selects the AVX2 bodies of the axpy kernels (axpy_amd64.s). It
// is set once, before any kernel runs: the CPU must report AVX and AVX2
// and the OS must save the YMM state.
var useAVX2 = hostcpu.AVX2

// The AVX2 bodies. Every x slice has already been resliced to the
// destination's length by the Go wrapper, so the assembly reads exactly
// the elements the Go body would and never bounds-checks.

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func axpySetAVX2(alpha float64, x, y []float64)

//go:noescape
func axpy2AVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, y []float64)

//go:noescape
func axpy2SetAVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, y []float64)

//go:noescape
func axpy4AVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, a4 float64, x4 []float64, y []float64)

//go:noescape
func axpy4SetAVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, a4 float64, x4 []float64, y []float64)
