//go:build amd64

#include "textflag.h"

// func mulAccRows64AVX512(dst, s, v *float64, n, m, ss, vs int64, zero bool)
//
// dst[0:n] = (zero ? +0 : dst) + Σ_{t<m} s[t·ss] · v[t·vs : t·vs+n], t
// ascending, with n a positive multiple of 8 and m positive. Every term is
// one VMULPD (the scalar as its first source) and one VADDPD (the
// accumulator as its first source): the Go loops' operations in their
// order, lane by lane. No FMA: a fused multiply-add rounds once and would
// change bits.
//
// Thirty-two outputs (four ZMM accumulators) per pass stay in registers
// across the whole t loop, so dst is read and written once per pass; eight
// outputs per pass cover the rest. PCALIGN keeps both t loops on a 32-byte
// boundary wherever the linker places the function.
TEXT ·mulAccRows64AVX512(SB), NOSPLIT, $0-57
	MOVQ    dst+0(FP), DI
	MOVQ    s+8(FP), SI
	MOVQ    v+16(FP), DX
	MOVQ    n+24(FP), CX
	MOVQ    m+32(FP), R8
	MOVQ    ss+40(FP), R9
	MOVQ    vs+48(FP), R10
	MOVBLZX zero+56(FP), R11
	SHLQ    $3, R9            // byte strides
	SHLQ    $3, R10

block32:
	CMPQ CX, $32
	JLT  block8
	TESTQ R11, R11
	JEQ  load32
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	JMP  start32

load32:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3

start32:
	MOVQ SI, R12              // s cursor
	MOVQ DX, R13              // row t of v at this pass's columns
	MOVQ R8, AX
	PCALIGN $32

t32:
	VBROADCASTSD (R12), Z8
	VMULPD       (R13), Z8, Z9
	VADDPD       Z9, Z0, Z0
	VMULPD       64(R13), Z8, Z10
	VADDPD       Z10, Z1, Z1
	VMULPD       128(R13), Z8, Z11
	VADDPD       Z11, Z2, Z2
	VMULPD       192(R13), Z8, Z12
	VADDPD       Z12, Z3, Z3
	ADDQ         R9, R12
	ADDQ         R10, R13
	DECQ         AX
	JNE          t32

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	SUBQ    $32, CX
	JMP     block32

block8:
	TESTQ CX, CX
	JEQ   done
	TESTQ R11, R11
	JEQ   load8
	VPXORQ Z0, Z0, Z0
	JMP   start8

load8:
	VMOVUPD (DI), Z0

start8:
	MOVQ SI, R12
	MOVQ DX, R13
	MOVQ R8, AX
	PCALIGN $32

t8:
	VBROADCASTSD (R12), Z8
	VMULPD       (R13), Z8, Z9
	VADDPD       Z9, Z0, Z0
	ADDQ         R9, R12
	ADDQ         R10, R13
	DECQ         AX
	JNE          t8

	VMOVUPD Z0, (DI)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, CX
	JMP     block8

done:
	VZEROUPPER
	RET
