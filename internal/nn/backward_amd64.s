#include "textflag.h"

// AVX2 kernels for Dense's training step: forwardAsm is the training
// forward, gradWAsm the backward's weight gradient and gradXAsm its input
// gradient. Every output element sees the operations the scalar Go loops
// (forwardGo, gradWGo, gradXGo) give it, in the same order: one VMULPD, then
// one VADDPD, per term. No FMA.
//
// The forward and gradW skip an input that is exactly ±0, as the scalar
// loops do, without a Go-side gather: each builds its masks of nonzero
// inputs in registers (VCMPPD NEQ_UQ against zero, which keeps NaN) and
// walks their set bits with BSF, lowest first, so the terms come in the
// scalar order. A mask word covers 64 inputs (the forward) or 64 rows
// (gradW); wider inputs and longer batches take one word at a time, so every
// width runs the same code. Only the training step runs here: Dense.eval,
// generation's forward, stays on forwardGo, because an OPEN read times
// generation and the repo benchmark's 5 ms read floor leaves it no room.
//
// A tile of output columns stays in registers while a sum runs (for the
// forward, over one mask word; for gradW, over one block of rows; for gradX,
// over all its terms): 16 columns in four YMM registers, then 4 in one, then
// 2 in one XMM register, then 1 in the low lane of one.

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

// forwardAsm and gradWAsm walk each mask word's set bits once, into a
// 64-entry list on their stack: the input value in list-1024(SP) and the
// byte offset of the row it scales (of w for the forward, of g for gradW) in
// list-512(SP). Every tile then reads the list, so a term costs a tile what
// it cost on the gathered lists the kernels replaced; walking the bits again
// for every tile made gradW 45–60 % slower at 64 output columns (250 rows,
// a 2-vCPU x86-64 host). The frame is too large for NOSPLIT. R13 holds the list's length, DX the base
// of the scaled rows, R9 their stride in bytes and BX the tile's byte
// offset; CX is DX + BX.

// One list entry for a tile register: T = row·x, acc = T + acc, where Y4
// holds x and R14 is the row's byte offset.
#define TERM(off, acc) \
	VMOVUPD off(CX)(R14*1), Y5; \
	VMULPD  Y4, Y5, Y5; \
	VADDPD  acc, Y5, acc

// AX = the index of R11's lowest set bit, which is cleared. BSF is baseline
// x86-64.
#define NEXTBIT \
	BSFQ R11, AX; \
	LEAQ -1(R11), R14; \
	ANDQ R14, R11

// func forwardAsm(y, x, w, b []float64, rows, in, out int)
//
// For each row r and each word of 64 inputs: build the mask of the word's
// inputs that are not ±0 (VCMPPD NEQ_UQ against zero keeps NaN, then
// VMOVMSKPD), list its set bits i ascending, and for each tile of y[r] add
// x[r][i]·w[i][tile] for the listed i in order. The first word's tiles
// start from b, later words' from y[r]. A row with no inputs gets b.
TEXT ·forwardAsm(SB), $1024-120
	MOVQ y_base+0(FP), DI  // &y[r][0]
	MOVQ x_base+24(FP), R8 // &x[r][0]
	MOVQ out+112(FP), R9
	SHLQ $3, R9            // y and w row stride in bytes
	VXORPD Y15, Y15, Y15

frow:
	MOVQ  rows+96(FP), AX
	IMULQ R9, AX
	ADDQ  y_base+0(FP), AX
	CMPQ  DI, AX
	JAE   fdone
	MOVQ  R8, SI            // &x[r][i0]
	MOVQ  w_base+48(FP), DX // &w[i0][0]
	MOVQ  in+104(FP), R10   // inputs left from i0

fword:
	MOVQ    $64, R14
	CMPQ    R10, R14
	CMOVQLT R10, R14       // inputs in this word
	XORQ    R11, R11       // their mask
	XORQ    CX, CX         // inputs done

fm4:
	LEAQ      4(CX), AX
	CMPQ      AX, R14
	JGT       fm2
	VCMPPD    $4, (SI)(CX*8), Y15, Y0
	VMOVMSKPD Y0, AX
	SHLQ      CX, AX
	ORQ       AX, R11
	ADDQ      $4, CX
	JMP       fm4

fm2:
	LEAQ      2(CX), AX
	CMPQ      AX, R14
	JGT       fm1
	VCMPPD    $4, (SI)(CX*8), X15, X0
	VMOVMSKPD X0, AX
	SHLQ      CX, AX
	ORQ       AX, R11
	ADDQ      $2, CX

fm1:
	CMPQ      CX, R14
	JGE       fmdone
	VMOVSD    (SI)(CX*8), X0 // the upper lane is +0: its bit stays clear
	VCMPPD    $4, X15, X0, X0
	VMOVMSKPD X0, AX
	SHLQ      CX, AX
	ORQ       AX, R11

fmdone:
	XORQ  R13, R13
	TESTQ R11, R11
	JZ    flisted

flist:
	NEXTBIT
	MOVQ  (SI)(AX*8), R14
	MOVQ  R14, list-1024(SP)(R13*8)
	IMULQ R9, AX
	MOVQ  AX, list-512(SP)(R13*8)
	INCQ  R13
	TESTQ R11, R11
	JNZ   flist

flisted:
	MOVQ    b_base+72(FP), R11 // where the tiles start: b, then y[r]
	CMPQ    SI, R8
	CMOVQNE DI, R11
	XORQ    BX, BX
	MOVQ    out+112(FP), R12   // columns left

f16:
	CMPQ    R12, $16
	JLT     f4
	VMOVUPD 0(R11)(BX*1), Y0
	VMOVUPD 32(R11)(BX*1), Y1
	VMOVUPD 64(R11)(BX*1), Y2
	VMOVUPD 96(R11)(BX*1), Y3
	LEAQ    (DX)(BX*1), CX
	XORQ    AX, AX
	TESTQ   R13, R13
	JZ      f16store

f16term:
	VBROADCASTSD list-1024(SP)(AX*8), Y4
	MOVQ         list-512(SP)(AX*8), R14
	TERM(0, Y0)
	TERM(32, Y1)
	TERM(64, Y2)
	TERM(96, Y3)
	INCQ AX
	CMPQ AX, R13
	JLT  f16term

f16store:
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	SUBQ    $16, R12
	JMP     f16

f4:
	CMPQ    R12, $4
	JLT     f2
	VMOVUPD (R11)(BX*1), Y0
	LEAQ    (DX)(BX*1), CX
	XORQ    AX, AX
	TESTQ   R13, R13
	JZ      f4store

f4term:
	VBROADCASTSD list-1024(SP)(AX*8), Y4
	MOVQ         list-512(SP)(AX*8), R14
	TERM(0, Y0)
	INCQ AX
	CMPQ AX, R13
	JLT  f4term

f4store:
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, R12
	JMP     f4

f2:
	CMPQ    R12, $2
	JLT     f1
	VMOVUPD (R11)(BX*1), X0
	LEAQ    (DX)(BX*1), CX
	XORQ    AX, AX
	TESTQ   R13, R13
	JZ      f2store

f2term:
	VMOVDDUP list-1024(SP)(AX*8), X4
	MOVQ     list-512(SP)(AX*8), R14
	VMOVUPD  (CX)(R14*1), X5
	VMULPD   X4, X5, X5
	VADDPD   X0, X5, X0
	INCQ     AX
	CMPQ     AX, R13
	JLT      f2term

f2store:
	VMOVUPD X0, (DI)(BX*1)
	ADDQ    $16, BX
	SUBQ    $2, R12

f1:
	TESTQ  R12, R12
	JZ     fnext
	VMOVSD (R11)(BX*1), X0
	LEAQ   (DX)(BX*1), CX
	XORQ   AX, AX
	TESTQ  R13, R13
	JZ     f1store

f1term:
	VMOVSD list-1024(SP)(AX*8), X4
	MOVQ   list-512(SP)(AX*8), R14
	VMOVSD (CX)(R14*1), X5
	VMULSD X4, X5, X5
	VADDSD X0, X5, X0
	INCQ   AX
	CMPQ   AX, R13
	JLT    f1term

f1store:
	VMOVSD X0, (DI)(BX*1)

fnext:
	ADDQ $512, SI          // the next word: 64 inputs on
	MOVQ R9, AX
	SHLQ $6, AX
	ADDQ AX, DX            // and 64 rows of w
	SUBQ $64, R10
	JGT  fword
	ADDQ R9, DI
	MOVQ in+104(FP), AX
	LEAQ (R8)(AX*8), R8
	JMP  frow

fdone:
	VZEROUPPER
	RET

// func gradWAsm(wg, x, g []float64, rows, in, out int)
//
// For each block of 64 rows and each group of 4 input columns (then 2, then
// 1): build the group's column masks, bit k of column i set when x[r0+k][i]
// is not ±0 (VCMPPD NEQ_UQ against zero, ANDed with a lane of 1<<k and ORed
// into the lane's mask: a 64×4 bit transpose, one row per step). Then for
// each column i of the group: list its set rows r ascending, and for each
// tile of wg[i] add x[r][i]·g[r][tile] for the listed rows in order. A
// column with no such row is not touched.
TEXT ·gradWAsm(SB), $1088-96
	MOVQ   out+88(FP), R9
	SHLQ   $3, R9          // g and wg row stride in bytes
	MOVQ   in+80(FP), R10
	SHLQ   $3, R10         // x row stride in bytes
	VXORPD Y15, Y15, Y15
	MOVQ   $1, AX
	VMOVQ  AX, X14
	VPBROADCASTQ X14, Y14  // bit 0 in every lane
	XORQ   R8, R8          // r0: the block's first row

gblock:
	MOVQ    rows+72(FP), AX
	SUBQ    R8, AX
	JLE     gdone
	MOVQ    $64, CX
	CMPQ    AX, CX
	CMOVQGT CX, AX
	MOVQ    AX, nr-1032(SP) // rows in the block
	MOVQ    $0, c-1040(SP)  // the group's first column

ggroup:
	MOVQ    in+80(FP), AX
	SUBQ    c-1040(SP), AX  // columns left
	JLE     gnextblock
	MOVQ    R8, SI
	IMULQ   R10, SI
	ADDQ    x_base+24(FP), SI
	MOVQ    c-1040(SP), CX
	LEAQ    (SI)(CX*8), SI  // &x[r0][c]
	VPXOR   Y6, Y6, Y6      // the group's masks
	VMOVDQU Y14, Y7         // this row's bit
	MOVQ    nr-1032(SP), CX
	CMPQ    AX, $4
	JLT     gm2

gm4:
	VCMPPD  $4, (SI), Y15, Y8
	VPAND   Y7, Y8, Y8
	VPOR    Y8, Y6, Y6
	VPADDQ  Y7, Y7, Y7
	ADDQ    R10, SI
	DECQ    CX
	JNZ     gm4
	VMOVDQU Y6, masks-1088(SP)
	MOVQ    $4, AX
	JMP     gcols

gm2:
	CMPQ AX, $2
	JLT  gm1

gm2row:
	VCMPPD  $4, (SI), X15, X8
	VPAND   X7, X8, X8
	VPOR    X8, X6, X6
	VPADDQ  X7, X7, X7
	ADDQ    R10, SI
	DECQ    CX
	JNZ     gm2row
	VMOVDQU X6, masks-1088(SP)
	MOVQ    $2, AX
	JMP     gcols

gm1:
	VMOVSD (SI), X8         // the upper lane is +0: its bits stay clear
	VCMPPD $4, X15, X8, X8
	VPAND  X7, X8, X8
	VPOR   X8, X6, X6
	VPADDQ X7, X7, X7
	ADDQ   R10, SI
	DECQ   CX
	JNZ    gm1
	VMOVQ  X6, masks-1088(SP)
	MOVQ   $1, AX

gcols:
	MOVQ AX, gw-1048(SP)    // columns in the group
	MOVQ $0, k-1056(SP)

gcol:
	MOVQ  k-1056(SP), AX
	CMPQ  AX, gw-1048(SP)
	JGE   gnextgroup
	MOVQ  masks-1088(SP)(AX*8), R11 // the column's mask
	ADDQ  c-1040(SP), AX    // the column i
	TESTQ R11, R11
	JZ    gcolnext
	MOVQ  AX, DI
	IMULQ R9, DI
	ADDQ  wg_base+0(FP), DI // &wg[i][0]
	MOVQ  x_base+24(FP), SI
	LEAQ  (SI)(AX*8), SI    // &x[0][i]
	XORQ  R13, R13

glist:
	NEXTBIT
	ADDQ  R8, AX            // the row
	MOVQ  AX, R14
	IMULQ R10, R14
	MOVQ  (SI)(R14*1), R14
	MOVQ  R14, list-1024(SP)(R13*8)
	IMULQ R9, AX
	MOVQ  AX, list-512(SP)(R13*8)
	INCQ  R13
	TESTQ R11, R11
	JNZ   glist
	MOVQ  g_base+48(FP), DX
	XORQ  BX, BX
	MOVQ  out+88(FP), R12   // columns of wg left

g16:
	CMPQ    R12, $16
	JLT     g4
	VMOVUPD 0(DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	LEAQ    (DX)(BX*1), CX
	XORQ    AX, AX

g16term:
	VBROADCASTSD list-1024(SP)(AX*8), Y4
	MOVQ         list-512(SP)(AX*8), R14
	TERM(0, Y0)
	TERM(32, Y1)
	TERM(64, Y2)
	TERM(96, Y3)
	INCQ AX
	CMPQ AX, R13
	JLT  g16term
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	SUBQ    $16, R12
	JMP     g16

g4:
	CMPQ    R12, $4
	JLT     g2
	VMOVUPD (DI)(BX*1), Y0
	LEAQ    (DX)(BX*1), CX
	XORQ    AX, AX

g4term:
	VBROADCASTSD list-1024(SP)(AX*8), Y4
	MOVQ         list-512(SP)(AX*8), R14
	TERM(0, Y0)
	INCQ AX
	CMPQ AX, R13
	JLT  g4term
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, R12
	JMP     g4

g2:
	CMPQ    R12, $2
	JLT     g1
	VMOVUPD (DI)(BX*1), X0
	LEAQ    (DX)(BX*1), CX
	XORQ    AX, AX

g2term:
	VMOVDDUP list-1024(SP)(AX*8), X4
	MOVQ     list-512(SP)(AX*8), R14
	VMOVUPD  (CX)(R14*1), X5
	VMULPD   X4, X5, X5
	VADDPD   X0, X5, X0
	INCQ     AX
	CMPQ     AX, R13
	JLT      g2term
	VMOVUPD  X0, (DI)(BX*1)
	ADDQ     $16, BX
	SUBQ     $2, R12

g1:
	TESTQ  R12, R12
	JZ     gcolnext
	VMOVSD (DI)(BX*1), X0
	LEAQ   (DX)(BX*1), CX
	XORQ   AX, AX

g1term:
	VMOVSD list-1024(SP)(AX*8), X4
	MOVQ   list-512(SP)(AX*8), R14
	VMOVSD (CX)(R14*1), X5
	VMULSD X4, X5, X5
	VADDSD X0, X5, X0
	INCQ   AX
	CMPQ   AX, R13
	JLT    g1term
	VMOVSD X0, (DI)(BX*1)

gcolnext:
	INCQ k-1056(SP)
	JMP  gcol

gnextgroup:
	MOVQ gw-1048(SP), AX
	ADDQ AX, c-1040(SP)
	JMP  ggroup

gnextblock:
	ADDQ $64, R8
	JMP  gblock

gdone:
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

// AVX2 kernels for BatchNorm's training step and ReLU's mask. Each lane of
// the BatchNorm kernels is one feature, and it meets the rows in ascending
// order: a sum is one VADDPD per row, a product one VMULPD (never an FMA),
// and a division one VDIVPD, which rounds correctly as DIVSD does (never a
// reciprocal).
//
// A tile of features keeps its sums and its per-feature values in registers
// while it walks the rows. The widest tile is 16 features (four YMM
// registers a value) for colSum and center, whose sums are latency-bound
// chains; 8 for gradSums, whose four sums take eight registers; and 4 for
// normalize and gradX, which carry nothing from row to row and wait on the
// divider. The tails are 4 features in one YMM register, 2 in one XMM
// register and 1 in the low lane of one. R8 holds the row count, R9 the row
// stride in bytes, R12 the features left, BX the tile's byte offset within a
// row, R10 the tile's byte offset in the current row and R13 the rows left.

// Rows of a tile: R13 counts them down from R8; R10 starts at the tile.
#define ROWS(done) \
	MOVQ  BX, R10; \
	MOVQ  R8, R13; \
	TESTQ R13, R13; \
	JZ    done

#define NEXTROW(loop) \
	ADDQ R9, R10; \
	DECQ R13; \
	JNZ  loop

// func bnColSumAsm(sum, x []float64, rows, dim int)
//
// sum[j] = Σ_r x[r][j], from +0.
TEXT ·bnColSumAsm(SB), NOSPLIT, $0-64
	MOVQ sum_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ rows+48(FP), R8
	MOVQ dim+56(FP), R12
	MOVQ R12, R9
	SHLQ $3, R9
	XORQ BX, BX

cs16:
	CMPQ R12, $16
	JLT  cs4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	ROWS(cs16store)

cs16row:
	VADDPD 0(SI)(R10*1), Y0, Y0
	VADDPD 32(SI)(R10*1), Y1, Y1
	VADDPD 64(SI)(R10*1), Y2, Y2
	VADDPD 96(SI)(R10*1), Y3, Y3
	NEXTROW(cs16row)

cs16store:
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ $128, BX
	SUBQ $16, R12
	JMP  cs16

cs4:
	CMPQ R12, $4
	JLT  cs2
	VXORPD Y0, Y0, Y0
	ROWS(cs4store)

cs4row:
	VADDPD (SI)(R10*1), Y0, Y0
	NEXTROW(cs4row)

cs4store:
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ $32, BX
	SUBQ $4, R12
	JMP  cs4

cs2:
	CMPQ R12, $2
	JLT  cs1
	VXORPD X0, X0, X0
	ROWS(cs2store)

cs2row:
	VADDPD (SI)(R10*1), X0, X0
	NEXTROW(cs2row)

cs2store:
	VMOVUPD X0, (DI)(BX*1)
	ADDQ $16, BX
	SUBQ $2, R12

cs1:
	TESTQ R12, R12
	JZ   csdone
	VXORPD X0, X0, X0
	ROWS(cs1store)

cs1row:
	VADDSD (SI)(R10*1), X0, X0
	NEXTROW(cs1row)

cs1store:
	VMOVSD X0, (DI)(BX*1)

csdone:
	VZEROUPPER
	RET

// One lane group of center: T = x − mean, c = T, acc = acc + T·T.
#define CENTER(off, m, acc, T) \
	VMOVUPD off(SI)(R10*1), T; \
	VSUBPD  m, T, T; \
	VMOVUPD T, off(DI)(R10*1); \
	VMULPD  T, T, T; \
	VADDPD  T, acc, acc

// func bnCenterAsm(c, variance, x, mean []float64, rows, dim int)
//
// c[r][j] = x[r][j] − mean[j]; variance[j] = Σ_r c[r][j]·c[r][j], from +0.
TEXT ·bnCenterAsm(SB), NOSPLIT, $0-112
	MOVQ c_base+0(FP), DI
	MOVQ variance_base+24(FP), DX
	MOVQ x_base+48(FP), SI
	MOVQ mean_base+72(FP), R11
	MOVQ rows+96(FP), R8
	MOVQ dim+104(FP), R12
	MOVQ R12, R9
	SHLQ $3, R9
	XORQ BX, BX

ce16:
	CMPQ R12, $16
	JLT  ce4
	VMOVUPD 0(R11)(BX*1), Y4
	VMOVUPD 32(R11)(BX*1), Y5
	VMOVUPD 64(R11)(BX*1), Y6
	VMOVUPD 96(R11)(BX*1), Y7
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	ROWS(ce16store)

ce16row:
	CENTER(0, Y4, Y0, Y8)
	CENTER(32, Y5, Y1, Y9)
	CENTER(64, Y6, Y2, Y10)
	CENTER(96, Y7, Y3, Y11)
	NEXTROW(ce16row)

ce16store:
	VMOVUPD Y0, 0(DX)(BX*1)
	VMOVUPD Y1, 32(DX)(BX*1)
	VMOVUPD Y2, 64(DX)(BX*1)
	VMOVUPD Y3, 96(DX)(BX*1)
	ADDQ $128, BX
	SUBQ $16, R12
	JMP  ce16

ce4:
	CMPQ R12, $4
	JLT  ce2
	VMOVUPD (R11)(BX*1), Y4
	VXORPD Y0, Y0, Y0
	ROWS(ce4store)

ce4row:
	CENTER(0, Y4, Y0, Y8)
	NEXTROW(ce4row)

ce4store:
	VMOVUPD Y0, (DX)(BX*1)
	ADDQ $32, BX
	SUBQ $4, R12
	JMP  ce4

ce2:
	CMPQ R12, $2
	JLT  ce1
	VMOVUPD (R11)(BX*1), X4
	VXORPD X0, X0, X0
	ROWS(ce2store)

ce2row:
	CENTER(0, X4, X0, X8)
	NEXTROW(ce2row)

ce2store:
	VMOVUPD X0, (DX)(BX*1)
	ADDQ $16, BX
	SUBQ $2, R12

ce1:
	TESTQ R12, R12
	JZ   cedone
	VMOVSD (R11)(BX*1), X4
	VXORPD X0, X0, X0
	ROWS(ce1store)

ce1row:
	VMOVSD (SI)(R10*1), X8
	VSUBSD X4, X8, X8
	VMOVSD X8, (DI)(R10*1)
	VMULSD X8, X8, X8
	VADDSD X8, X0, X0
	NEXTROW(ce1row)

ce1store:
	VMOVSD X0, (DX)(BX*1)

cedone:
	VZEROUPPER
	RET

// One lane group of normalize: T = c / std, xhat = T, y = gamma·T + beta.
#define NORMALIZE(sd, gm, bt, T) \
	VMOVUPD (DI)(R10*1), T; \
	VDIVPD  sd, T, T; \
	VMOVUPD T, (DI)(R10*1); \
	VMULPD  T, gm, T; \
	VADDPD  bt, T, T; \
	VMOVUPD T, (SI)(R10*1)

// func bnNormalizeAsm(xhat, y, std, gamma, beta []float64, rows, dim int)
//
// xhat[r][j] = xhat[r][j] / std[j]; y[r][j] = gamma[j]·xhat[r][j] + beta[j].
// A row's lanes carry no sum, so 4 features at a time keep the divider busy.
TEXT ·bnNormalizeAsm(SB), NOSPLIT, $0-136
	MOVQ xhat_base+0(FP), DI
	MOVQ y_base+24(FP), SI
	MOVQ std_base+48(FP), DX
	MOVQ gamma_base+72(FP), CX
	MOVQ beta_base+96(FP), AX
	MOVQ rows+120(FP), R8
	MOVQ dim+128(FP), R12
	MOVQ R12, R9
	SHLQ $3, R9
	XORQ BX, BX

no4:
	CMPQ R12, $4
	JLT  no2
	VMOVUPD (DX)(BX*1), Y1
	VMOVUPD (CX)(BX*1), Y2
	VMOVUPD (AX)(BX*1), Y3
	ROWS(no4next)

no4row:
	NORMALIZE(Y1, Y2, Y3, Y0)
	NEXTROW(no4row)

no4next:
	ADDQ $32, BX
	SUBQ $4, R12
	JMP  no4

no2:
	CMPQ R12, $2
	JLT  no1
	VMOVUPD (DX)(BX*1), X1
	VMOVUPD (CX)(BX*1), X2
	VMOVUPD (AX)(BX*1), X3
	ROWS(no2next)

no2row:
	NORMALIZE(X1, X2, X3, X0)
	NEXTROW(no2row)

no2next:
	ADDQ $16, BX
	SUBQ $2, R12

no1:
	TESTQ R12, R12
	JZ   nodone
	VMOVSD (DX)(BX*1), X1
	VMOVSD (CX)(BX*1), X2
	VMOVSD (AX)(BX*1), X3
	ROWS(nodone)

no1row:
	VMOVSD (DI)(R10*1), X0
	VDIVSD X1, X0, X0
	VMOVSD X0, (DI)(R10*1)
	VMULSD X0, X2, X0
	VADDSD X3, X0, X0
	VMOVSD X0, (SI)(R10*1)
	NEXTROW(no1row)

nodone:
	VZEROUPPER
	RET

// One lane group of gradSums: G = g, P = g·xhat; bg += G, gg += P, sg += G,
// sgx += P.
#define GSUMS(off, bg, gg, sg, sgx, G, P) \
	VMOVUPD off(SI)(R10*1), G; \
	VMULPD  off(AX)(R10*1), G, P; \
	VADDPD  G, bg, bg; \
	VADDPD  P, gg, gg; \
	VADDPD  G, sg, sg; \
	VADDPD  P, sgx, sgx

// func bnGradSumsAsm(betaG, gammaG, sumG, sumGX, g, xhat []float64, rows, dim int)
//
// betaG[j] += Σ_r g[r][j] and gammaG[j] += Σ_r g[r][j]·xhat[r][j], one row
// at a time; sumG and sumGX are the same sums from +0.
TEXT ·bnGradSumsAsm(SB), NOSPLIT, $0-160
	MOVQ betaG_base+0(FP), DI
	MOVQ gammaG_base+24(FP), R11
	MOVQ sumG_base+48(FP), CX
	MOVQ sumGX_base+72(FP), DX
	MOVQ g_base+96(FP), SI
	MOVQ xhat_base+120(FP), AX
	MOVQ rows+144(FP), R8
	MOVQ dim+152(FP), R12
	MOVQ R12, R9
	SHLQ $3, R9
	XORQ BX, BX

gs8:
	CMPQ R12, $8
	JLT  gs4
	VMOVUPD 0(DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 0(R11)(BX*1), Y2
	VMOVUPD 32(R11)(BX*1), Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	ROWS(gs8store)

gs8row:
	GSUMS(0, Y0, Y2, Y4, Y6, Y8, Y9)
	GSUMS(32, Y1, Y3, Y5, Y7, Y10, Y11)
	NEXTROW(gs8row)

gs8store:
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 0(R11)(BX*1)
	VMOVUPD Y3, 32(R11)(BX*1)
	VMOVUPD Y4, 0(CX)(BX*1)
	VMOVUPD Y5, 32(CX)(BX*1)
	VMOVUPD Y6, 0(DX)(BX*1)
	VMOVUPD Y7, 32(DX)(BX*1)
	ADDQ $64, BX
	SUBQ $8, R12
	JMP  gs8

gs4:
	CMPQ R12, $4
	JLT  gs2
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD (R11)(BX*1), Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	ROWS(gs4store)

gs4row:
	GSUMS(0, Y0, Y2, Y4, Y6, Y8, Y9)
	NEXTROW(gs4row)

gs4store:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y2, (R11)(BX*1)
	VMOVUPD Y4, (CX)(BX*1)
	VMOVUPD Y6, (DX)(BX*1)
	ADDQ $32, BX
	SUBQ $4, R12
	JMP  gs4

gs2:
	CMPQ R12, $2
	JLT  gs1
	VMOVUPD (DI)(BX*1), X0
	VMOVUPD (R11)(BX*1), X2
	VXORPD X4, X4, X4
	VXORPD X6, X6, X6
	ROWS(gs2store)

gs2row:
	GSUMS(0, X0, X2, X4, X6, X8, X9)
	NEXTROW(gs2row)

gs2store:
	VMOVUPD X0, (DI)(BX*1)
	VMOVUPD X2, (R11)(BX*1)
	VMOVUPD X4, (CX)(BX*1)
	VMOVUPD X6, (DX)(BX*1)
	ADDQ $16, BX
	SUBQ $2, R12

gs1:
	TESTQ R12, R12
	JZ   gsdone
	VMOVSD (DI)(BX*1), X0
	VMOVSD (R11)(BX*1), X2
	VXORPD X4, X4, X4
	VXORPD X6, X6, X6
	ROWS(gs1store)

gs1row:
	VMOVSD (SI)(R10*1), X8
	VMULSD (AX)(R10*1), X8, X9
	VADDSD X8, X0, X0
	VADDSD X9, X2, X2
	VADDSD X8, X4, X4
	VADDSD X9, X6, X6
	NEXTROW(gs1row)

gs1store:
	VMOVSD X0, (DI)(BX*1)
	VMOVSD X2, (R11)(BX*1)
	VMOVSD X4, (CX)(BX*1)
	VMOVSD X6, (DX)(BX*1)

gsdone:
	VZEROUPPER
	RET

// One lane group of gradX: T = xhat·sumGX/n, U = (g − meanG) − T,
// gx = scale·U.
#define GRADX(sc, mg, sgx, n, T, U) \
	VMOVUPD (AX)(R10*1), T; \
	VMULPD  sgx, T, T; \
	VDIVPD  n, T, T; \
	VMOVUPD (SI)(R10*1), U; \
	VSUBPD  mg, U, U; \
	VSUBPD  T, U, U; \
	VMULPD  U, sc, U; \
	VMOVUPD U, (DI)(R10*1)

// func bnGradXAsm(gx, g, xhat, scale, meanG, sumGX []float64, n float64, rows, dim int)
//
// gx[r][j] = scale[j]·((g[r][j] − meanG[j]) − xhat[r][j]·sumGX[j]/n).
// Like normalize, 4 features at a time.
TEXT ·bnGradXAsm(SB), NOSPLIT, $0-168
	MOVQ gx_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ xhat_base+48(FP), AX
	MOVQ scale_base+72(FP), R11
	MOVQ meanG_base+96(FP), CX
	MOVQ sumGX_base+120(FP), DX
	VBROADCASTSD n+144(FP), Y4
	MOVQ rows+152(FP), R8
	MOVQ dim+160(FP), R12
	MOVQ R12, R9
	SHLQ $3, R9
	XORQ BX, BX

gx4:
	CMPQ R12, $4
	JLT  gx2
	VMOVUPD (R11)(BX*1), Y1
	VMOVUPD (CX)(BX*1), Y2
	VMOVUPD (DX)(BX*1), Y3
	ROWS(gx4next)

gx4row:
	GRADX(Y1, Y2, Y3, Y4, Y5, Y6)
	NEXTROW(gx4row)

gx4next:
	ADDQ $32, BX
	SUBQ $4, R12
	JMP  gx4

gx2:
	CMPQ R12, $2
	JLT  gx1
	VMOVUPD (R11)(BX*1), X1
	VMOVUPD (CX)(BX*1), X2
	VMOVUPD (DX)(BX*1), X3
	ROWS(gx2next)

gx2row:
	GRADX(X1, X2, X3, X4, X5, X6)
	NEXTROW(gx2row)

gx2next:
	ADDQ $16, BX
	SUBQ $2, R12

gx1:
	TESTQ R12, R12
	JZ   gxdone
	VMOVSD (R11)(BX*1), X1
	VMOVSD (CX)(BX*1), X2
	VMOVSD (DX)(BX*1), X3
	ROWS(gxdone)

gx1row:
	VMOVSD (AX)(R10*1), X5
	VMULSD X3, X5, X5
	VDIVSD X4, X5, X5
	VMOVSD (SI)(R10*1), X6
	VSUBSD X2, X6, X6
	VSUBSD X5, X6, X6
	VMULSD X6, X1, X6
	VMOVSD X6, (DI)(R10*1)
	NEXTROW(gx1row)

gxdone:
	VZEROUPPER
	RET

// One lane group of mask: M = key > 0 and not key > +Inf, as signed 64-bit
// integers (positive's test: sign clear, not ±0, not NaN), then dst = src & M.
#define MASK(LD, ST, Z, I, S, K, M) \
	LD      (DX)(BX*1), K; \
	VPCMPGTQ Z, K, M; \
	VPCMPGTQ I, K, K; \
	VPANDN  M, K, M; \
	LD      (SI)(BX*1), S; \
	VPAND   S, M, M; \
	ST      M, (DI)(BX*1)

// func maskAsm(dst, src, key []float64)
//
// dst[k] = src[k] where key[k] > 0, and +0 elsewhere, for k < len(key).
TEXT ·maskAsm(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ key_base+48(FP), DX
	MOVQ key_len+56(FP), R12
	XORQ BX, BX
	VPXOR Y14, Y14, Y14
	MOVQ $0x7ff0000000000000, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13

ma4:
	CMPQ R12, $4
	JLT  ma2
	MASK(VMOVDQU, VMOVDQU, Y14, Y13, Y0, Y1, Y2)
	ADDQ $32, BX
	SUBQ $4, R12
	JMP  ma4

ma2:
	CMPQ R12, $2
	JLT  ma1
	MASK(VMOVDQU, VMOVDQU, X14, X13, X0, X1, X2)
	ADDQ $16, BX
	SUBQ $2, R12

ma1:
	TESTQ R12, R12
	JZ   madone
	MASK(VMOVQ, VMOVQ, X14, X13, X0, X1, X2)

madone:
	VZEROUPPER
	RET
