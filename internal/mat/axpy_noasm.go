//go:build !amd64

package mat

// Off amd64 the pure-Go bodies are the only bodies: useAVX2 is a constant
// false, so the dispatch branches fold away and the stubs below are never
// called. They exist only so axpy.go compiles unchanged on every GOARCH.
const useAVX2 = false

func axpyAVX2(alpha float64, x, y []float64) { axpyGo(alpha, x, y) }

func axpySetAVX2(alpha float64, x, y []float64) { axpySetGo(alpha, x, y) }

func axpy2AVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, y []float64) {
	axpy2Go(a1, x1, a2, x2, y)
}

func axpy2SetAVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, y []float64) {
	axpy2SetGo(a1, x1, a2, x2, y)
}

func axpy4AVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, a4 float64, x4 []float64, y []float64) {
	axpy4Go(a1, x1, a2, x2, a3, x3, a4, x4, y)
}

func axpy4SetAVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, a4 float64, x4 []float64, y []float64) {
	axpy4SetGo(a1, x1, a2, x2, a3, x3, a4, x4, y)
}
