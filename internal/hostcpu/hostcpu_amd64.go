package hostcpu

// AVX2 reports whether AVX2 instructions may run: CPUID leaf 1 OSXSAVE
// and AVX, XCR0 bits 1–2 (the OS saves SSE and AVX state), and CPUID
// leaf 7 AVX2.
var AVX2 bool

// FMA reports whether the CPU has AVX and FMA and the OS saves their
// state — the condition under which math.Exp evaluates its polynomial
// with fused multiply-adds on amd64, whose last bits differ from the
// unfused path it takes otherwise.
var FMA bool

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return
	}
	FMA = ecx1&fma != 0
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		AVX2 = ebx7&(1<<5) != 0
	}
}

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0). Call it only when
// CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)
