#include "textflag.h"

// AVX2 bodies of the fp64 axpy kernels in axpy.go. Each one computes, per
// element and in the same order, exactly the float operations of its Go
// loop: one VMULPD per scaled stream, then one VADDPD per accumulation,
// left to right (y + a1·x1, then + a2·x2, …). There is no FMA — a fused
// multiply-add rounds once where the Go loop rounds twice — and no
// reassociation, so every lane is bit-identical to the scalar loop and the
// scalar tail (VMULSD/VADDSD) is the same code one lane wide. Rows are
// walked with one byte offset in AX and an element count in CX: 16
// elements per iteration as four independent YMM chains, then 4, then 1.
// The Go wrappers have already resliced every input to the element count.

// func axpyAVX2(alpha float64, x, y []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), R8
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX

loop16:
	CMPQ CX, $16
	JLT  loop4
	VMULPD (R8)(AX*1), Y0, Y4
	VMULPD 32(R8)(AX*1), Y0, Y5
	VMULPD 64(R8)(AX*1), Y0, Y6
	VMULPD 96(R8)(AX*1), Y0, Y7
	VADDPD (DI)(AX*1), Y4, Y4
	VADDPD 32(DI)(AX*1), Y5, Y5
	VADDPD 64(DI)(AX*1), Y6, Y6
	VADDPD 96(DI)(AX*1), Y7, Y7
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ $128, AX
	SUBQ $16, CX
	JMP  loop16

loop4:
	CMPQ CX, $4
	JLT  tail
	VMULPD (R8)(AX*1), Y0, Y4
	VADDPD (DI)(AX*1), Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  loop4

tail:
	TESTQ CX, CX
	JEQ   done
	VMULSD (R8)(AX*1), X0, X4
	VADDSD (DI)(AX*1), X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpySetAVX2(alpha float64, x, y []float64)
TEXT ·axpySetAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), R8
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX

loop16:
	CMPQ CX, $16
	JLT  loop4
	VMULPD (R8)(AX*1), Y0, Y4
	VMULPD 32(R8)(AX*1), Y0, Y5
	VMULPD 64(R8)(AX*1), Y0, Y6
	VMULPD 96(R8)(AX*1), Y0, Y7
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ $128, AX
	SUBQ $16, CX
	JMP  loop16

loop4:
	CMPQ CX, $4
	JLT  tail
	VMULPD (R8)(AX*1), Y0, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  loop4

tail:
	TESTQ CX, CX
	JEQ   done
	VMULSD (R8)(AX*1), X0, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpy2AVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, y []float64)
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-88
	VBROADCASTSD a1+0(FP), Y0
	VBROADCASTSD a2+32(FP), Y1
	MOVQ x1_base+8(FP), R8
	MOVQ x2_base+40(FP), R9
	MOVQ y_base+64(FP), DI
	MOVQ y_len+72(FP), CX
	XORQ AX, AX

loop16:
	CMPQ CX, $16
	JLT  loop4
	VMULPD (R8)(AX*1), Y0, Y4
	VMULPD 32(R8)(AX*1), Y0, Y5
	VMULPD 64(R8)(AX*1), Y0, Y6
	VMULPD 96(R8)(AX*1), Y0, Y7
	VADDPD (DI)(AX*1), Y4, Y4
	VADDPD 32(DI)(AX*1), Y5, Y5
	VADDPD 64(DI)(AX*1), Y6, Y6
	VADDPD 96(DI)(AX*1), Y7, Y7
	VMULPD (R9)(AX*1), Y1, Y8
	VMULPD 32(R9)(AX*1), Y1, Y9
	VMULPD 64(R9)(AX*1), Y1, Y10
	VMULPD 96(R9)(AX*1), Y1, Y11
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ $128, AX
	SUBQ $16, CX
	JMP  loop16

loop4:
	CMPQ CX, $4
	JLT  tail
	VMULPD (R8)(AX*1), Y0, Y4
	VADDPD (DI)(AX*1), Y4, Y4
	VMULPD (R9)(AX*1), Y1, Y8
	VADDPD Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  loop4

tail:
	TESTQ CX, CX
	JEQ   done
	VMULSD (R8)(AX*1), X0, X4
	VADDSD (DI)(AX*1), X4, X4
	VMULSD (R9)(AX*1), X1, X8
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpy2SetAVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, y []float64)
TEXT ·axpy2SetAVX2(SB), NOSPLIT, $0-88
	VBROADCASTSD a1+0(FP), Y0
	VBROADCASTSD a2+32(FP), Y1
	MOVQ x1_base+8(FP), R8
	MOVQ x2_base+40(FP), R9
	MOVQ y_base+64(FP), DI
	MOVQ y_len+72(FP), CX
	XORQ AX, AX

loop16:
	CMPQ CX, $16
	JLT  loop4
	VMULPD (R8)(AX*1), Y0, Y4
	VMULPD 32(R8)(AX*1), Y0, Y5
	VMULPD 64(R8)(AX*1), Y0, Y6
	VMULPD 96(R8)(AX*1), Y0, Y7
	VMULPD (R9)(AX*1), Y1, Y8
	VMULPD 32(R9)(AX*1), Y1, Y9
	VMULPD 64(R9)(AX*1), Y1, Y10
	VMULPD 96(R9)(AX*1), Y1, Y11
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ $128, AX
	SUBQ $16, CX
	JMP  loop16

loop4:
	CMPQ CX, $4
	JLT  tail
	VMULPD (R8)(AX*1), Y0, Y4
	VMULPD (R9)(AX*1), Y1, Y8
	VADDPD Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  loop4

tail:
	TESTQ CX, CX
	JEQ   done
	VMULSD (R8)(AX*1), X0, X4
	VMULSD (R9)(AX*1), X1, X8
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpy4AVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, a4 float64, x4 []float64, y []float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	VBROADCASTSD a1+0(FP), Y0
	VBROADCASTSD a2+32(FP), Y1
	VBROADCASTSD a3+64(FP), Y2
	VBROADCASTSD a4+96(FP), Y3
	MOVQ x1_base+8(FP), R8
	MOVQ x2_base+40(FP), R9
	MOVQ x3_base+72(FP), R10
	MOVQ x4_base+104(FP), R11
	MOVQ y_base+128(FP), DI
	MOVQ y_len+136(FP), CX
	XORQ AX, AX

loop16:
	CMPQ CX, $16
	JLT  loop4
	VMULPD (R8)(AX*1), Y0, Y4
	VMULPD 32(R8)(AX*1), Y0, Y5
	VMULPD 64(R8)(AX*1), Y0, Y6
	VMULPD 96(R8)(AX*1), Y0, Y7
	VADDPD (DI)(AX*1), Y4, Y4
	VADDPD 32(DI)(AX*1), Y5, Y5
	VADDPD 64(DI)(AX*1), Y6, Y6
	VADDPD 96(DI)(AX*1), Y7, Y7
	VMULPD (R9)(AX*1), Y1, Y8
	VMULPD 32(R9)(AX*1), Y1, Y9
	VMULPD 64(R9)(AX*1), Y1, Y10
	VMULPD 96(R9)(AX*1), Y1, Y11
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7
	VMULPD (R10)(AX*1), Y2, Y8
	VMULPD 32(R10)(AX*1), Y2, Y9
	VMULPD 64(R10)(AX*1), Y2, Y10
	VMULPD 96(R10)(AX*1), Y2, Y11
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7
	VMULPD (R11)(AX*1), Y3, Y8
	VMULPD 32(R11)(AX*1), Y3, Y9
	VMULPD 64(R11)(AX*1), Y3, Y10
	VMULPD 96(R11)(AX*1), Y3, Y11
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ $128, AX
	SUBQ $16, CX
	JMP  loop16

loop4:
	CMPQ CX, $4
	JLT  tail
	VMULPD (R8)(AX*1), Y0, Y4
	VADDPD (DI)(AX*1), Y4, Y4
	VMULPD (R9)(AX*1), Y1, Y8
	VADDPD Y8, Y4, Y4
	VMULPD (R10)(AX*1), Y2, Y8
	VADDPD Y8, Y4, Y4
	VMULPD (R11)(AX*1), Y3, Y8
	VADDPD Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  loop4

tail:
	TESTQ CX, CX
	JEQ   done
	VMULSD (R8)(AX*1), X0, X4
	VADDSD (DI)(AX*1), X4, X4
	VMULSD (R9)(AX*1), X1, X8
	VADDSD X8, X4, X4
	VMULSD (R10)(AX*1), X2, X8
	VADDSD X8, X4, X4
	VMULSD (R11)(AX*1), X3, X8
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpy4SetAVX2(a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, a4 float64, x4 []float64, y []float64)
TEXT ·axpy4SetAVX2(SB), NOSPLIT, $0-152
	VBROADCASTSD a1+0(FP), Y0
	VBROADCASTSD a2+32(FP), Y1
	VBROADCASTSD a3+64(FP), Y2
	VBROADCASTSD a4+96(FP), Y3
	MOVQ x1_base+8(FP), R8
	MOVQ x2_base+40(FP), R9
	MOVQ x3_base+72(FP), R10
	MOVQ x4_base+104(FP), R11
	MOVQ y_base+128(FP), DI
	MOVQ y_len+136(FP), CX
	XORQ AX, AX

loop16:
	CMPQ CX, $16
	JLT  loop4
	VMULPD (R8)(AX*1), Y0, Y4
	VMULPD 32(R8)(AX*1), Y0, Y5
	VMULPD 64(R8)(AX*1), Y0, Y6
	VMULPD 96(R8)(AX*1), Y0, Y7
	VMULPD (R9)(AX*1), Y1, Y8
	VMULPD 32(R9)(AX*1), Y1, Y9
	VMULPD 64(R9)(AX*1), Y1, Y10
	VMULPD 96(R9)(AX*1), Y1, Y11
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7
	VMULPD (R10)(AX*1), Y2, Y8
	VMULPD 32(R10)(AX*1), Y2, Y9
	VMULPD 64(R10)(AX*1), Y2, Y10
	VMULPD 96(R10)(AX*1), Y2, Y11
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7
	VMULPD (R11)(AX*1), Y3, Y8
	VMULPD 32(R11)(AX*1), Y3, Y9
	VMULPD 64(R11)(AX*1), Y3, Y10
	VMULPD 96(R11)(AX*1), Y3, Y11
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ $128, AX
	SUBQ $16, CX
	JMP  loop16

loop4:
	CMPQ CX, $4
	JLT  tail
	VMULPD (R8)(AX*1), Y0, Y4
	VMULPD (R9)(AX*1), Y1, Y8
	VADDPD Y8, Y4, Y4
	VMULPD (R10)(AX*1), Y2, Y8
	VADDPD Y8, Y4, Y4
	VMULPD (R11)(AX*1), Y3, Y8
	VADDPD Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  loop4

tail:
	TESTQ CX, CX
	JEQ   done
	VMULSD (R8)(AX*1), X0, X4
	VMULSD (R9)(AX*1), X1, X8
	VADDSD X8, X4, X4
	VMULSD (R10)(AX*1), X2, X8
	VADDSD X8, X4, X4
	VMULSD (R11)(AX*1), X3, X8
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  tail

done:
	VZEROUPPER
	RET
