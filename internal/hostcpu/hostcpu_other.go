//go:build !amd64

package hostcpu

// AVX2 and FMA are x86 features; off amd64 they are constant false.
const (
	AVX2 = false
	FMA  = false
)
