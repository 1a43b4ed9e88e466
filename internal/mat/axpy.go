package mat

// The two innermost loops of every forward kernel in this codebase — the
// dense product, the sparse product in internal/graph, and the transpose
// gradient kernels — are a scaled vector accumulate (y += α·x) or a dot
// product over one row. The Go compiler does not vectorise either. The
// axpy family therefore has two bodies per kernel: the pure-Go loops at
// the bottom of this file, unrolled with explicit bounds hints, which are
// the reference and run on every GOARCH; and AVX2 bodies on amd64
// (axpy_amd64.s), picked once at start-up when the CPU and OS support
// AVX2. The AVX2 bodies issue, per element and in the same order, the
// multiplies and adds of the Go loop — separate VMULPD and VADDPD, never
// an FMA, which would round once where the loop rounds twice — so a lane
// of a vector register computes exactly what one iteration of the loop
// does, and every caller is bit-identical whichever body runs (the golden
// digests in internal/core pin this end to end). Dot stays scalar on
// every platform: vectorising a reduction reorders its sum.

// Axpy accumulates y[j] += alpha·x[j] for j < len(x). len(y) must be at
// least len(x); each y element receives one multiply and one add, so the
// result is bit-identical to the naive loop.
func Axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	if useAVX2 {
		axpyAVX2(alpha, x, y)
		return
	}
	axpyGo(alpha, x, y)
}

// Axpy2 accumulates y[j] += a1·x1[j] + a2·x2[j], associating left to
// right per element — bit-identical to Axpy(a1, x1, y) followed by
// Axpy(a2, x2, y), but with one pass over y instead of two and two
// independent load streams the CPU can miss on concurrently. The sparse
// product feeds pairs of CSR non-zeros through this (and quads through
// Axpy4): its row gathers are cache-miss-bound, and overlapping the miss
// streams is worth more than any in-register trick.
func Axpy2(a1 float64, x1 []float64, a2 float64, x2 []float64, y []float64) {
	if useAVX2 {
		n := len(y)
		axpy2AVX2(a1, x1[:n], a2, x2[:n], y)
		return
	}
	axpy2Go(a1, x1, a2, x2, y)
}

// Axpy4 accumulates four scaled rows into y in one pass, left-associated
// per element like Axpy2 — bit-identical to four sequential Axpy calls.
func Axpy4(a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, a4 float64, x4 []float64, y []float64) {
	if useAVX2 {
		n := len(y)
		axpy4AVX2(a1, x1[:n], a2, x2[:n], a3, x3[:n], a4, x4[:n], y)
		return
	}
	axpy4Go(a1, x1, a2, x2, a3, x3, a4, x4, y)
}

// AxpySet writes y[j] = alpha·x[j] — the initialising form of Axpy. The
// product kernels start each output row with a Set variant instead of
// zero-filling the whole destination first, which removes a full memclr
// pass over the output matrix (numerically, 0 + α·x ≡ α·x up to the sign
// of zero, which no comparison in this codebase distinguishes).
func AxpySet(alpha float64, x, y []float64) {
	y = y[:len(x)]
	if useAVX2 {
		axpySetAVX2(alpha, x, y)
		return
	}
	axpySetGo(alpha, x, y)
}

// Axpy2Set writes y[j] = a1·x1[j] + a2·x2[j], the initialising form of
// Axpy2.
func Axpy2Set(a1 float64, x1 []float64, a2 float64, x2 []float64, y []float64) {
	if useAVX2 {
		n := len(y)
		axpy2SetAVX2(a1, x1[:n], a2, x2[:n], y)
		return
	}
	axpy2SetGo(a1, x1, a2, x2, y)
}

// Axpy4Set writes four scaled rows into y in one initialising pass, the
// Set form of Axpy4.
func Axpy4Set(a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, a4 float64, x4 []float64, y []float64) {
	if useAVX2 {
		n := len(y)
		axpy4SetAVX2(a1, x1[:n], a2, x2[:n], a3, x3[:n], a4, x4[:n], y)
		return
	}
	axpy4SetGo(a1, x1, a2, x2, a3, x3, a4, x4, y)
}

// Dot returns Σ x[j]·y[j] over j < len(x), accumulating in index order
// with a single accumulator (bit-identical to the naive loop; the unroll
// only removes bounds checks and branch overhead). len(y) must be at
// least len(x).
func Dot(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		s += xs[0] * ys[0]
		s += xs[1] * ys[1]
		s += xs[2] * ys[2]
		s += xs[3] * ys[3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// The pure-Go reference bodies: 8-wide (single stream) or 4-wide
// (multi-stream) unrolls with explicit bounds hints. They are what every
// GOARCH but amd64-with-AVX2 runs, and the definition the AVX2 bodies
// reproduce bit for bit.

func axpyGo(alpha float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ys[0] += alpha * xs[0]
		ys[1] += alpha * xs[1]
		ys[2] += alpha * xs[2]
		ys[3] += alpha * xs[3]
		ys[4] += alpha * xs[4]
		ys[5] += alpha * xs[5]
		ys[6] += alpha * xs[6]
		ys[7] += alpha * xs[7]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

func axpy2Go(a1 float64, x1 []float64, a2 float64, x2 []float64, y []float64) {
	n := len(y)
	x1 = x1[:n]
	x2 = x2[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s1 := x1[i : i+4 : i+4]
		s2 := x2[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] = ys[0] + a1*s1[0] + a2*s2[0]
		ys[1] = ys[1] + a1*s1[1] + a2*s2[1]
		ys[2] = ys[2] + a1*s1[2] + a2*s2[2]
		ys[3] = ys[3] + a1*s1[3] + a2*s2[3]
	}
	for ; i < n; i++ {
		y[i] = y[i] + a1*x1[i] + a2*x2[i]
	}
}

func axpy4Go(a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, a4 float64, x4 []float64, y []float64) {
	n := len(y)
	x1 = x1[:n]
	x2 = x2[:n]
	x3 = x3[:n]
	x4 = x4[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s1 := x1[i : i+4 : i+4]
		s2 := x2[i : i+4 : i+4]
		s3 := x3[i : i+4 : i+4]
		s4 := x4[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] = ys[0] + a1*s1[0] + a2*s2[0] + a3*s3[0] + a4*s4[0]
		ys[1] = ys[1] + a1*s1[1] + a2*s2[1] + a3*s3[1] + a4*s4[1]
		ys[2] = ys[2] + a1*s1[2] + a2*s2[2] + a3*s3[2] + a4*s4[2]
		ys[3] = ys[3] + a1*s1[3] + a2*s2[3] + a3*s3[3] + a4*s4[3]
	}
	for ; i < n; i++ {
		y[i] = y[i] + a1*x1[i] + a2*x2[i] + a3*x3[i] + a4*x4[i]
	}
}

func axpySetGo(alpha float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ys[0] = alpha * xs[0]
		ys[1] = alpha * xs[1]
		ys[2] = alpha * xs[2]
		ys[3] = alpha * xs[3]
		ys[4] = alpha * xs[4]
		ys[5] = alpha * xs[5]
		ys[6] = alpha * xs[6]
		ys[7] = alpha * xs[7]
	}
	for ; i < len(x); i++ {
		y[i] = alpha * x[i]
	}
}

func axpy2SetGo(a1 float64, x1 []float64, a2 float64, x2 []float64, y []float64) {
	n := len(y)
	x1 = x1[:n]
	x2 = x2[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s1 := x1[i : i+4 : i+4]
		s2 := x2[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] = a1*s1[0] + a2*s2[0]
		ys[1] = a1*s1[1] + a2*s2[1]
		ys[2] = a1*s1[2] + a2*s2[2]
		ys[3] = a1*s1[3] + a2*s2[3]
	}
	for ; i < n; i++ {
		y[i] = a1*x1[i] + a2*x2[i]
	}
}

func axpy4SetGo(a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, a4 float64, x4 []float64, y []float64) {
	n := len(y)
	x1 = x1[:n]
	x2 = x2[:n]
	x3 = x3[:n]
	x4 = x4[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s1 := x1[i : i+4 : i+4]
		s2 := x2[i : i+4 : i+4]
		s3 := x3[i : i+4 : i+4]
		s4 := x4[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] = a1*s1[0] + a2*s2[0] + a3*s3[0] + a4*s4[0]
		ys[1] = a1*s1[1] + a2*s2[1] + a3*s3[1] + a4*s4[1]
		ys[2] = a1*s1[2] + a2*s2[2] + a3*s3[2] + a4*s4[2]
		ys[3] = a1*s1[3] + a2*s2[3] + a3*s3[3] + a4*s4[3]
	}
	for ; i < n; i++ {
		y[i] = a1*x1[i] + a2*x2[i] + a3*x3[i] + a4*x4[i]
	}
}
