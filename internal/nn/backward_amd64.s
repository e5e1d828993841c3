#include "textflag.h"

// AVX2 kernels for Dense.backward. Every output element sees the operations
// the scalar Go loops (gradWGo, gradXGo) give it, in the same order: one
// VMULPD, then one VADDPD, per term. No FMA.
//
// A tile of output columns stays in registers while a sum runs (for gradW,
// over one block of rows; for gradX, over all its terms): 16 columns in
// four YMM registers, then 4 in one, then 2 in one XMM register, then 1 in
// the low lane of one.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// One term of gradW for a tile register: T = g·x, acc = T + acc.
#define WTERM(off, acc) \
	VMOVUPD off(CX)(R10*1), Y5; \
	VMULPD  Y4, Y5, Y5; \
	VADDPD  acc, Y5, acc

// func gradWRowsAsm(wg, xs []float64, offs []int, g []float64)
//
// For each tile of wg: load it, add xs[k]·g[offs[k]/8 + tile] for k
// ascending, store it. offs are byte offsets of g rows.
TEXT ·gradWRowsAsm(SB), NOSPLIT, $0-96
	MOVQ wg_base+0(FP), DI
	MOVQ wg_len+8(FP), R12   // columns left
	MOVQ xs_base+24(FP), SI
	MOVQ xs_len+32(FP), R8   // terms per sum
	MOVQ offs_base+48(FP), R9
	MOVQ g_base+72(FP), DX
	XORQ BX, BX              // byte offset of the tile
	TESTQ R8, R8
	JZ   wdone

w16:
	CMPQ R12, $16
	JLT  w4
	VMOVUPD 0(DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	LEAQ (DX)(BX*1), CX
	XORQ AX, AX

w16term:
	VBROADCASTSD (SI)(AX*8), Y4
	MOVQ (R9)(AX*8), R10
	WTERM(0, Y0)
	WTERM(32, Y1)
	WTERM(64, Y2)
	WTERM(96, Y3)
	INCQ AX
	CMPQ AX, R8
	JLT  w16term
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ $128, BX
	SUBQ $16, R12
	JMP  w16

w4:
	CMPQ R12, $4
	JLT  w2
	VMOVUPD 0(DI)(BX*1), Y0
	LEAQ (DX)(BX*1), CX
	XORQ AX, AX

w4term:
	VBROADCASTSD (SI)(AX*8), Y4
	MOVQ (R9)(AX*8), R10
	WTERM(0, Y0)
	INCQ AX
	CMPQ AX, R8
	JLT  w4term
	VMOVUPD Y0, 0(DI)(BX*1)
	ADDQ $32, BX
	SUBQ $4, R12
	JMP  w4

w2:
	CMPQ R12, $2
	JLT  w1
	VMOVUPD 0(DI)(BX*1), X0
	LEAQ (DX)(BX*1), CX
	XORQ AX, AX

w2term:
	VMOVDDUP (SI)(AX*8), X4
	MOVQ (R9)(AX*8), R10
	VMOVUPD (CX)(R10*1), X5
	VMULPD  X4, X5, X5
	VADDPD  X0, X5, X0
	INCQ AX
	CMPQ AX, R8
	JLT  w2term
	VMOVUPD X0, 0(DI)(BX*1)
	ADDQ $16, BX
	SUBQ $2, R12

w1:
	TESTQ R12, R12
	JZ   wdone
	VMOVSD 0(DI)(BX*1), X0
	LEAQ (DX)(BX*1), CX
	XORQ AX, AX

w1term:
	VMOVSD (SI)(AX*8), X4
	MOVQ (R9)(AX*8), R10
	VMOVSD (CX)(R10*1), X5
	VMULSD  X4, X5, X5
	VADDSD  X0, X5, X0
	INCQ AX
	CMPQ AX, R8
	JLT  w1term
	VMOVSD X0, 0(DI)(BX*1)

wdone:
	VZEROUPPER
	RET

// One term of gradX for a tile register: T = wt·g, acc = T + acc.
#define XTERM(off, acc) \
	VMOVUPD off(CX), Y5; \
	VMULPD  Y4, Y5, Y5; \
	VADDPD  acc, Y5, acc

// func gradXAsm(gx, g, wt []float64, rows, in, out int)
//
// For each row r, for each tile of gx[r][·]: start from +0, add
// wt[j][tile]·g[r][j] for j ascending, store it.
TEXT ·gradXAsm(SB), NOSPLIT, $0-96
	MOVQ gx_base+0(FP), DI // &gx[r][0]
	MOVQ g_base+24(FP), SI // &g[r][0]
	MOVQ wt_base+48(FP), DX
	MOVQ rows+72(FP), R8   // rows left
	MOVQ in+80(FP), R9
	SHLQ $3, R9            // gx and wt row stride in bytes
	MOVQ out+88(FP), R10   // terms per sum
	MOVQ R10, R11
	SHLQ $3, R11           // g row stride in bytes

xrow:
	TESTQ R8, R8
	JZ   xdone
	XORQ BX, BX            // byte offset of the tile
	MOVQ in+80(FP), R12    // columns left in this row of gx

x16:
	CMPQ R12, $16
	JLT  x4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, AX
	LEAQ (DX)(BX*1), CX
	MOVQ R10, R13
	TESTQ R13, R13
	JZ   x16store

x16term:
	VBROADCASTSD (AX), Y4
	XTERM(0, Y0)
	XTERM(32, Y1)
	XTERM(64, Y2)
	XTERM(96, Y3)
	ADDQ $8, AX
	ADDQ R9, CX
	DECQ R13
	JNZ  x16term

x16store:
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ $128, BX
	SUBQ $16, R12
	JMP  x16

x4:
	CMPQ R12, $4
	JLT  x2
	VXORPD Y0, Y0, Y0
	MOVQ SI, AX
	LEAQ (DX)(BX*1), CX
	MOVQ R10, R13
	TESTQ R13, R13
	JZ   x4store

x4term:
	VBROADCASTSD (AX), Y4
	XTERM(0, Y0)
	ADDQ $8, AX
	ADDQ R9, CX
	DECQ R13
	JNZ  x4term

x4store:
	VMOVUPD Y0, 0(DI)(BX*1)
	ADDQ $32, BX
	SUBQ $4, R12
	JMP  x4

x2:
	CMPQ R12, $2
	JLT  x1
	VXORPD X0, X0, X0
	MOVQ SI, AX
	LEAQ (DX)(BX*1), CX
	MOVQ R10, R13
	TESTQ R13, R13
	JZ   x2store

x2term:
	VMOVDDUP (AX), X4
	VMOVUPD (CX), X5
	VMULPD  X4, X5, X5
	VADDPD  X0, X5, X0
	ADDQ $8, AX
	ADDQ R9, CX
	DECQ R13
	JNZ  x2term

x2store:
	VMOVUPD X0, 0(DI)(BX*1)
	ADDQ $16, BX
	SUBQ $2, R12

x1:
	TESTQ R12, R12
	JZ   xnext
	VXORPD X0, X0, X0
	MOVQ SI, AX
	LEAQ (DX)(BX*1), CX
	MOVQ R10, R13
	TESTQ R13, R13
	JZ   x1store

x1term:
	VMOVSD (AX), X4
	VMOVSD (CX), X5
	VMULSD  X4, X5, X5
	VADDSD  X0, X5, X0
	ADDQ $8, AX
	ADDQ R9, CX
	DECQ R13
	JNZ  x1term

x1store:
	VMOVSD X0, 0(DI)(BX*1)

xnext:
	ADDQ R9, DI
	ADDQ R11, SI
	DECQ R8
	JMP  xrow

xdone:
	VZEROUPPER
	RET
