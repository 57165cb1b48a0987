//go:build amd64

#include "textflag.h"

// Both kernels read the Packed32 layout: per block of four outputs, one
// 16-float chunk per four inputs (output 4b's four weights, then 4b+1's,
// 4b+2's and 4b+3's). Per output they keep four stride-4 partial sums
// s0..s3 (s_l += w_l·a_l, weight as the first source of the multiply and
// the accumulator as the first source of the add), reduce them as
// (s0+s2)+(s1+s3) with the left operand first, add bias with the sum
// first, and clamp with max(lim, v), v second — MAXSS/VMAXPS return the
// second source on NaN and on ±0 ties, so a NaN dot propagates and −0
// survives the identity clamp. Operand order only matters when both
// operands are NaN, and then both kernels keep the same payload. No FMA:
// a fused multiply-add rounds once and would change bits. The pure-Go
// kernel matmulTransB32Go is the reference both equal bit for bit.

// func matmulTransB32SSE(a, w, bias, dst *float32, outs, inPad int64, lim float32)
//
// Four outputs (one block) per pass; each k-chunk of a is loaded once and
// multiplied by the block's four consecutive 16-byte weight loads.
TEXT ·matmulTransB32SSE(SB), NOSPLIT, $0-52
	MOVQ  a+0(FP), SI
	MOVQ  w+8(FP), DI
	MOVQ  bias+16(FP), BX
	MOVQ  dst+24(FP), DX
	MOVQ  outs+32(FP), CX
	MOVQ  inPad+40(FP), R8
	MOVSS lim+48(FP), X15

outerloop:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R11             // a cursor
	MOVQ  R8, AX

kloop:
	MOVUPS (R11), X8
	MOVUPS (DI), X9
	MULPS  X8, X9
	ADDPS  X9, X0
	MOVUPS 16(DI), X10
	MULPS  X8, X10
	ADDPS  X10, X1
	MOVUPS 32(DI), X11
	MULPS  X8, X11
	ADDPS  X11, X2
	MOVUPS 48(DI), X12
	MULPS  X8, X12
	ADDPS  X12, X3
	ADDQ   $16, R11
	ADDQ   $64, DI            // after the last chunk: the next block
	SUBQ   $4, AX
	JNE    kloop

	// Reduce X0: lanes {s0,s1,s2,s3} -> (s0+s2)+(s1+s3), then bias+clamp.
	MOVAPS  X0, X8
	MOVHLPS X0, X8
	ADDPS   X8, X0            // lane0 = s0+s2, lane1 = s1+s3
	MOVAPS  X0, X8
	SHUFPS  $0x55, X8, X8     // broadcast lane1
	ADDSS   X8, X0
	ADDSS   (BX), X0
	MOVAPS  X15, X8
	MAXSS   X0, X8            // max(lim, v); NaN v propagates
	MOVSS   X8, (DX)

	MOVAPS  X1, X8
	MOVHLPS X1, X8
	ADDPS   X8, X1
	MOVAPS  X1, X8
	SHUFPS  $0x55, X8, X8
	ADDSS   X8, X1
	ADDSS   4(BX), X1
	MOVAPS  X15, X8
	MAXSS   X1, X8
	MOVSS   X8, 4(DX)

	MOVAPS  X2, X8
	MOVHLPS X2, X8
	ADDPS   X8, X2
	MOVAPS  X2, X8
	SHUFPS  $0x55, X8, X8
	ADDSS   X8, X2
	ADDSS   8(BX), X2
	MOVAPS  X15, X8
	MAXSS   X2, X8
	MOVSS   X8, 8(DX)

	MOVAPS  X3, X8
	MOVHLPS X3, X8
	ADDPS   X8, X3
	MOVAPS  X3, X8
	SHUFPS  $0x55, X8, X8
	ADDSS   X8, X3
	ADDSS   12(BX), X3
	MOVAPS  X15, X8
	MAXSS   X3, X8
	MOVSS   X8, 12(DX)

	ADDQ $16, BX
	ADDQ $16, DX
	SUBQ $4, CX
	JNE  outerloop

	RET

// unblock16 sends position 4L+i of the reduced vector (sub-output L of
// block i) to position 4i+L, the output's place in dst.
DATA unblock16<>+0(SB)/4, $0
DATA unblock16<>+4(SB)/4, $4
DATA unblock16<>+8(SB)/4, $8
DATA unblock16<>+12(SB)/4, $12
DATA unblock16<>+16(SB)/4, $1
DATA unblock16<>+20(SB)/4, $5
DATA unblock16<>+24(SB)/4, $9
DATA unblock16<>+28(SB)/4, $13
DATA unblock16<>+32(SB)/4, $2
DATA unblock16<>+36(SB)/4, $6
DATA unblock16<>+40(SB)/4, $10
DATA unblock16<>+44(SB)/4, $14
DATA unblock16<>+48(SB)/4, $3
DATA unblock16<>+52(SB)/4, $7
DATA unblock16<>+56(SB)/4, $11
DATA unblock16<>+60(SB)/4, $15
GLOBL unblock16<>(SB), RODATA|NOPTR, $64

// REDUCE16 reduces the accumulators Z0..Z3 of blocks 0..3 (128-bit lane L
// of Zi holds s0..s3 of the block's output L) into Z6, output 4i+L at
// position 4i+L. Every 128-bit lane does exactly the SSE reduction: the
// first four unpacks pair {Z0.s0, Z1.s0, Z0.s1, Z1.s1} with
// {Z0.s2, Z1.s2, Z0.s3, Z1.s3} (likewise Z2, Z3), so one add gives
// p = s0+s2 and q = s1+s3 of two blocks, left operand first; the 64-bit
// unpacks gather {p} and {q} of all four blocks, and one more add gives
// (s0+s2)+(s1+s3). Z14 holds unblock16.
#define REDUCE16 \
	VUNPCKLPS Z1, Z0, Z4; \
	VUNPCKHPS Z1, Z0, Z5; \
	VUNPCKLPS Z3, Z2, Z6; \
	VUNPCKHPS Z3, Z2, Z7; \
	VADDPS    Z5, Z4, Z4; \
	VADDPS    Z7, Z6, Z6; \
	VUNPCKLPD Z6, Z4, Z5; \
	VUNPCKHPD Z6, Z4, Z7; \
	VADDPS    Z7, Z5, Z5; \
	VPERMPS   Z5, Z14, Z6

// func matmulTransB32AVX512(a, w, bias, dst *float32, outs, inPad int64, lim float32)
//
// Sixteen outputs (four blocks) per pass: each k-chunk of a is broadcast
// to all four 128-bit lanes once, and one 64-byte weight load, VMULPS and
// VADDPS cover a block. A remainder of 4, 8 or 12 outputs runs one block
// per pass with the same reduction and a masked bias load and store.
TEXT ·matmulTransB32AVX512(SB), NOSPLIT, $0-52
	MOVQ         a+0(FP), SI
	MOVQ         w+8(FP), DI
	MOVQ         bias+16(FP), BX
	MOVQ         dst+24(FP), DX
	MOVQ         outs+32(FP), CX
	MOVQ         inPad+40(FP), R8
	VBROADCASTSS lim+48(FP), Z15
	VMOVDQU32    unblock16<>(SB), Z14

	// R10 = inPad*16: the byte stride of one block.
	MOVQ R8, R10
	SHLQ $4, R10
	CMPQ CX, $16
	JLT  tail

block16:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	LEAQ   (DI)(R10*1), R12   // block 1
	LEAQ   (DI)(R10*2), R13   // block 2
	LEAQ   (R12)(R10*2), R14  // block 3
	MOVQ   SI, R11            // a cursor
	XORQ   R9, R9             // chunk offset in every block
	MOVQ   R8, AX

k16:
	VBROADCASTF32X4 (R11), Z8
	VMOVUPS         (DI)(R9*1), Z9
	VMULPS          Z8, Z9, Z9
	VADDPS          Z9, Z0, Z0
	VMOVUPS         (R12)(R9*1), Z10
	VMULPS          Z8, Z10, Z10
	VADDPS          Z10, Z1, Z1
	VMOVUPS         (R13)(R9*1), Z11
	VMULPS          Z8, Z11, Z11
	VADDPS          Z11, Z2, Z2
	VMOVUPS         (R14)(R9*1), Z12
	VMULPS          Z8, Z12, Z12
	VADDPS          Z12, Z3, Z3
	ADDQ            $16, R11
	ADDQ            $64, R9
	SUBQ            $4, AX
	JNE             k16

	REDUCE16
	VADDPS  (BX), Z6, Z6      // v + bias
	VMAXPS  Z6, Z15, Z6       // max(lim, v); NaN v propagates
	VMOVUPS Z6, (DX)

	LEAQ (DI)(R10*4), DI      // advance four blocks
	ADDQ $64, BX
	ADDQ $64, DX
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  block16

tail:
	TESTQ CX, CX
	JEQ   done
	MOVL  $0xF, AX
	KMOVW AX, K1              // the first four positions: one block

block4:
	VPXORD Z0, Z0, Z0
	MOVQ   SI, R11
	MOVQ   R8, AX

k4:
	VBROADCASTF32X4 (R11), Z8
	VMOVUPS         (DI), Z9
	VMULPS          Z8, Z9, Z9
	VADDPS          Z9, Z0, Z0
	ADDQ            $16, R11
	ADDQ            $64, DI   // after the last chunk: the next block
	SUBQ            $4, AX
	JNE             k4

	// Blocks 1..3 are copies of block 0; only positions 0..3 are stored.
	VMOVAPS   Z0, Z1
	VMOVAPS   Z0, Z2
	VMOVAPS   Z0, Z3
	REDUCE16
	VMOVUPS.Z (BX), K1, Z7
	VADDPS    Z7, Z6, Z6
	VMAXPS    Z6, Z15, Z6
	VMOVUPS   Z6, K1, (DX)

	ADDQ $16, BX
	ADDQ $16, DX
	SUBQ $4, CX
	JNE  block4

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
