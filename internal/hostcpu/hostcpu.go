// Package hostcpu reports the x86 features that decide which code paths
// run on this host: the AVX2 bodies of internal/mat's axpy kernels, and
// the fused multiply-add path the standard library's math.Exp takes on
// amd64. It reads CPUID and XGETBV directly (hostcpu_amd64.s), so the
// module needs no dependency outside the standard library. Off amd64
// every feature reads false.
package hostcpu
