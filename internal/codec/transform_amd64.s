#include "textflag.h"

// SSE2 bodies of fdctResidual and idctAdd, specified by fdctResidualGo and
// idctAddGo (dct_fixed.go). A block is eight registers of eight int16 lanes,
// and a 1-D pass runs across the registers, one lane per row or column, so
// the butterfly needs no shuffles; a transpose turns the block between the
// passes. Every product is a PMADDWL (PMADDWD) of an interleaved input pair
// against a pair of constants, exact in int32, so each output is the integer
// the Go body sums, rounded and shifted the same way. The int16 ranges are
// DESIGN.md §12's: residuals ≤ 255, forward pass-1 outputs ≤ 11 540, pass-2
// sums ≤ 23 080 — the pass-2 even half's second butterfly could reach
// 46 160, so every even output is taken from the s pairs with the expanded
// matrix row, the same sum — and coefficients ≤ 32 656. The inverse declines
// a block (returns false, stores nothing) with a level above 32 767 / qstep
// in magnitude, or with a pass-1 output at ±32 767 or beyond (PACKSSLW may
// have saturated it); the caller then runs the Go body. Its residuals are
// ≤ 5 410, so residual + prediction stays int16 and PACKUSWB is clampPixI.

// Constant pairs (a, b), four times over: PMADDWL of a pair register (x, y)
// against one gives a·x + b·y. fixCk = round(½·cos(kπ/16)·2^13): C1 4017,
// C2 3784, C3 3406, C4 2896, C5 2276, C6 1567, C7 799.
DATA dctk<>+0(SB)/8, $0x0B500B500B500B50   // K0  ( C4,  C4)
DATA dctk<>+8(SB)/8, $0x0B500B500B500B50
DATA dctk<>+16(SB)/8, $0xF4B00B50F4B00B50  // K4A ( C4, -C4)
DATA dctk<>+24(SB)/8, $0xF4B00B50F4B00B50
DATA dctk<>+32(SB)/8, $0x0B50F4B00B50F4B0  // K4B (-C4,  C4)
DATA dctk<>+40(SB)/8, $0x0B50F4B00B50F4B0
DATA dctk<>+48(SB)/8, $0x061F0EC8061F0EC8  // K2A ( C2,  C6)
DATA dctk<>+56(SB)/8, $0x061F0EC8061F0EC8
DATA dctk<>+64(SB)/8, $0xF138F9E1F138F9E1  // K2B (-C6, -C2)
DATA dctk<>+72(SB)/8, $0xF138F9E1F138F9E1
DATA dctk<>+80(SB)/8, $0xF138061FF138061F  // K6A ( C6, -C2)
DATA dctk<>+88(SB)/8, $0xF138061FF138061F
DATA dctk<>+96(SB)/8, $0xF9E10EC8F9E10EC8  // K6B ( C2, -C6)
DATA dctk<>+104(SB)/8, $0xF9E10EC8F9E10EC8
DATA dctk<>+112(SB)/8, $0x0D4E0FB10D4E0FB1 // K1A ( C1,  C3)
DATA dctk<>+120(SB)/8, $0x0D4E0FB10D4E0FB1
DATA dctk<>+128(SB)/8, $0x031F08E4031F08E4 // K1B ( C5,  C7)
DATA dctk<>+136(SB)/8, $0x031F08E4031F08E4
DATA dctk<>+144(SB)/8, $0xFCE10D4EFCE10D4E // K3A ( C3, -C7)
DATA dctk<>+152(SB)/8, $0xFCE10D4EFCE10D4E
DATA dctk<>+160(SB)/8, $0xF71CF04FF71CF04F // K3B (-C1, -C5)
DATA dctk<>+168(SB)/8, $0xF71CF04FF71CF04F
DATA dctk<>+176(SB)/8, $0xF04F08E4F04F08E4 // K5A ( C5, -C1)
DATA dctk<>+184(SB)/8, $0xF04F08E4F04F08E4
DATA dctk<>+192(SB)/8, $0x0D4E031F0D4E031F // K5B ( C7,  C3)
DATA dctk<>+200(SB)/8, $0x0D4E031F0D4E031F
DATA dctk<>+208(SB)/8, $0xF71C031FF71C031F // K7A ( C7, -C5)
DATA dctk<>+216(SB)/8, $0xF71C031FF71C031F
DATA dctk<>+224(SB)/8, $0xF04F0D4EF04F0D4E // K7B ( C3, -C1)
DATA dctk<>+232(SB)/8, $0xF04F0D4EF04F0D4E
DATA dctk<>+240(SB)/8, $0x7FFE7FFE7FFE7FFE // SATHI 32 766
DATA dctk<>+248(SB)/8, $0x7FFE7FFE7FFE7FFE
DATA dctk<>+256(SB)/8, $0x8001800180018001 // SATLO -32 767
DATA dctk<>+264(SB)/8, $0x8001800180018001
GLOBL dctk<>(SB), RODATA|NOPTR, $272

#define K0 dctk<>+0(SB)
#define K4A dctk<>+16(SB)
#define K4B dctk<>+32(SB)
#define K2A dctk<>+48(SB)
#define K2B dctk<>+64(SB)
#define K6A dctk<>+80(SB)
#define K6B dctk<>+96(SB)
#define K1A dctk<>+112(SB)
#define K1B dctk<>+128(SB)
#define K3A dctk<>+144(SB)
#define K3B dctk<>+160(SB)
#define K5A dctk<>+176(SB)
#define K5B dctk<>+192(SB)
#define K7A dctk<>+208(SB)
#define K7B dctk<>+224(SB)
#define SATHI dctk<>+240(SB)
#define SATLO dctk<>+256(SB)

// BCAST32 sets every int32 lane of r to v; BCAST16 sets every int16 lane of
// r to the low word of the argument a. Both clobber AX.
#define BCAST32(v, r) MOVL v, AX; MOVL AX, r; PSHUFD $0, r, r
#define BCAST16(a, r) MOVQ a, AX; MOVL AX, r; PSHUFLW $0, r, r; PSHUFD $0, r, r

// TRANSPOSE transposes the 8×8 int16 block in X0-X7 (register i holds row
// i) in place — words, then doublewords, then quadwords. Clobbers X8-X11.
#define TRANSPOSE \
	MOVO X0, X8; PUNPCKLWL X1, X8; PUNPCKHWL X1, X0; \
	MOVO X2, X9; PUNPCKLWL X3, X9; PUNPCKHWL X3, X2; \
	MOVO X4, X10; PUNPCKLWL X5, X10; PUNPCKHWL X5, X4; \
	MOVO X6, X11; PUNPCKLWL X7, X11; PUNPCKHWL X7, X6; \
	MOVO X8, X1; PUNPCKLLQ X9, X1; PUNPCKHLQ X9, X8; \
	MOVO X10, X3; PUNPCKLLQ X11, X3; PUNPCKHLQ X11, X10; \
	MOVO X0, X5; PUNPCKLLQ X2, X5; PUNPCKHLQ X2, X0; \
	MOVO X4, X7; PUNPCKLLQ X6, X7; PUNPCKHLQ X6, X4; \
	MOVO X1, X9; PUNPCKLQDQ X3, X9; PUNPCKHQDQ X3, X1; \
	MOVO X8, X2; PUNPCKLQDQ X10, X2; PUNPCKHQDQ X10, X8; \
	MOVO X5, X11; PUNPCKLQDQ X7, X11; PUNPCKHQDQ X7, X5; \
	MOVO X0, X6; PUNPCKLQDQ X4, X6; PUNPCKHQDQ X4, X0; \
	MOVO X0, X7; MOVO X9, X0; MOVO X8, X3; MOVO X11, X4

// FPAIRS is the forward pass's input butterfly across X0-X7 (x0 … x7),
// s_i = x_i + x_(7-i) and d_i = x_i − x_(7-i), interleaved into pair
// registers, low four lanes and high four: (s0, s1) X12 / X0, (s2, s3)
// X13 / X2, (d0, d1) X14 / X8, (d2, d3) X15 / X10.
#define FPAIRS \
	MOVO X0, X8; PADDW X7, X0; PSUBW X7, X8; \
	MOVO X1, X9; PADDW X6, X1; PSUBW X6, X9; \
	MOVO X2, X10; PADDW X5, X2; PSUBW X5, X10; \
	MOVO X3, X11; PADDW X4, X3; PSUBW X4, X11; \
	MOVO X0, X12; PUNPCKLWL X1, X12; PUNPCKHWL X1, X0; \
	MOVO X2, X13; PUNPCKLWL X3, X13; PUNPCKHWL X3, X2; \
	MOVO X8, X14; PUNPCKLWL X9, X14; PUNPCKHWL X9, X8; \
	MOVO X10, X15; PUNPCKLWL X11, X15; PUNPCKHWL X11, X10

// FOUT forms one forward output, (pa·ca + pb·cb + X7) >> sh, low four lanes
// in X1 and high four in X3. Clobbers X4, X5.
#define FOUT(paL, paH, pbL, pbH, ca, cb, sh) \
	MOVO paL, X1; PMADDWL ca, X1; MOVO pbL, X4; PMADDWL cb, X4; \
	PADDL X4, X1; PADDL X7, X1; PSRAL $sh, X1; \
	MOVO paH, X3; PMADDWL ca, X3; MOVO pbH, X5; PMADDWL cb, X5; \
	PADDL X5, X3; PADDL X7, X3; PSRAL $sh, X3

#define EVEN(ca, cb, sh) FOUT(X12, X0, X13, X2, ca, cb, sh)
#define ODD(ca, cb, sh) FOUT(X14, X8, X15, X10, ca, cb, sh)

// F1STORE packs a pass-1 output to int16 and stores it as row off/16 of the
// intermediate block on the stack. F2STORE stores a pass-2 output as
// coefficient row off/32 and ORs its magnitudes into X6.
#define F1STORE(off) PACKSSLW X3, X1; MOVOU X1, off(SP)
#define F2STORE(off) \
	MOVOU X1, off(DI); MOVOU X3, off+16(DI); PACKSSLW X3, X1; \
	PXOR X4, X4; PSUBW X1, X4; PMAXSW X1, X4; POR X4, X6

// RESID loads one row of cur − pred into r as int16 and steps both rows.
#define RESID(r) \
	MOVQ (SI), r; MOVQ (BX), X8; PUNPCKLBW X15, r; PUNPCKLBW X15, X8; \
	PSUBW X8, r; ADDQ AX, SI; ADDQ CX, BX

// func fdctSSE2(cur *uint8, cstride int, pred *uint8, pstride int, coef *[64]int32) (or uint32)
TEXT ·fdctSSE2(SB), NOSPLIT, $128-44
	MOVQ cur+0(FP), SI
	MOVQ cstride+8(FP), AX
	MOVQ pred+16(FP), BX
	MOVQ pstride+24(FP), CX
	MOVQ coef+32(FP), DI
	PXOR X15, X15
	RESID(X0); RESID(X1); RESID(X2); RESID(X3)
	RESID(X4); RESID(X5); RESID(X6); RESID(X7)

	// Pass 1 along rows: transposed, each register is a column and each
	// lane a row; output k is row k of the intermediate block.
	TRANSPOSE
	FPAIRS
	BCAST32($256, X7)
	EVEN(K0, K0, 9); F1STORE(0)
	ODD(K1A, K1B, 9); F1STORE(16)
	EVEN(K2A, K2B, 9); F1STORE(32)
	ODD(K3A, K3B, 9); F1STORE(48)
	EVEN(K4A, K4B, 9); F1STORE(64)
	ODD(K5A, K5B, 9); F1STORE(80)
	EVEN(K6A, K6B, 9); F1STORE(96)
	ODD(K7A, K7B, 9); F1STORE(112)

	// Pass 2 down the original columns: output k is coefficient row k.
	MOVOU 0(SP), X0; MOVOU 16(SP), X1; MOVOU 32(SP), X2; MOVOU 48(SP), X3
	MOVOU 64(SP), X4; MOVOU 80(SP), X5; MOVOU 96(SP), X6; MOVOU 112(SP), X7
	TRANSPOSE
	FPAIRS
	BCAST32($4096, X7)
	PXOR X6, X6
	EVEN(K0, K0, 13); F2STORE(0)
	ODD(K1A, K1B, 13); F2STORE(32)
	EVEN(K2A, K2B, 13); F2STORE(64)
	ODD(K3A, K3B, 13); F2STORE(96)
	EVEN(K4A, K4B, 13); F2STORE(128)
	ODD(K5A, K5B, 13); F2STORE(160)
	EVEN(K6A, K6B, 13); F2STORE(192)
	ODD(K7A, K7B, 13); F2STORE(224)

	// Fold the eight magnitude words of X6 into one.
	PSHUFD $0x4E, X6, X4; POR X4, X6
	PSHUFD $0xB1, X6, X4; POR X4, X6
	MOVL X6, AX; MOVL AX, BX; SHRL $16, BX; ORL BX, AX; ANDL $0xFFFF, AX
	MOVL AX, or+40(FP)
	RET

// IPAIRS interleaves the inverse pass's inputs X0-X7 (v0 … v7) into pair
// registers, low four lanes and high four: (v0, v4) X8 / X0, (v2, v6)
// X9 / X2, (v1, v3) X10 / X1, (v5, v7) X11 / X5.
#define IPAIRS \
	MOVO X0, X8; PUNPCKLWL X4, X8; PUNPCKHWL X4, X0; \
	MOVO X2, X9; PUNPCKLWL X6, X9; PUNPCKHWL X6, X2; \
	MOVO X1, X10; PUNPCKLWL X3, X10; PUNPCKHWL X3, X1; \
	MOVO X5, X11; PUNPCKLWL X7, X11; PUNPCKHWL X7, X5

// QOUT forms q = p13·ca + p57·cb, then stores (e + q) >> sh at oi(R8) and
// (e − q) >> sh at oj(R8). Clobbers e, X4, X15.
#define QOUT(e, p13, p57, ca, cb, oi, oj, sh) \
	MOVO p13, X15; PMADDWL ca, X15; MOVO p57, X4; PMADDWL cb, X4; PADDL X4, X15; \
	MOVO e, X4; PADDL X15, X4; PSUBL X15, e; PSRAL $sh, X4; PSRAL $sh, e; \
	MOVOU X4, oi(R8); MOVOU e, oj(R8)

// IHALF runs the inverse butterfly on four lanes of pair registers and
// stores output i as int32 at 32·i(R8): e0 … e3 from the even pairs (X7 the
// rounding term), then out_i = e_i + q_i and out_(7-i) = e_i − q_i.
// Clobbers X3, X4, X12-X15.
#define IHALF(p04, p26, p13, p57, sh) \
	MOVO p04, X12; PMADDWL K0, X12; PADDL X7, X12; \
	MOVO p04, X13; PMADDWL K4A, X13; PADDL X7, X13; \
	MOVO p26, X14; PMADDWL K2A, X14; \
	MOVO p26, X15; PMADDWL K6A, X15; \
	MOVO X12, X3; PADDL X14, X12; PSUBL X14, X3; \
	MOVO X13, X14; PADDL X15, X13; PSUBL X15, X14; \
	QOUT(X12, p13, p57, K1A, K1B, 0, 224, sh); \
	QOUT(X13, p13, p57, K3A, K3B, 32, 192, sh); \
	QOUT(X14, p13, p57, K5A, K5B, 64, 160, sh); \
	QOUT(X3, p13, p57, K7A, K7B, 96, 128, sh)

// IPASS is one inverse 1-D pass across X0-X7 with rounding term rnd and
// shift sh; its eight int32 output rows land on the stack.
#define IPASS(rnd, sh) \
	IPAIRS; BCAST32(rnd, X7); \
	LEAQ 0(SP), R8; IHALF(X8, X9, X10, X11, sh); \
	LEAQ 16(SP), R8; IHALF(X0, X2, X1, X5, sh)

// PACKROWS loads the eight int32 rows on the stack into X0-X7 as int16
// (PACKSSLW saturates) and folds them into the running maximum X12 and
// minimum X13.
#define PACKROW(off, r) \
	MOVOU off(SP), r; MOVOU off+16(SP), X8; PACKSSLW X8, r; PMAXSW r, X12; PMINSW r, X13
#define PACKROWS \
	PACKROW(0, X0); PACKROW(32, X1); PACKROW(64, X2); PACKROW(96, X3); \
	PACKROW(128, X4); PACKROW(160, X5); PACKROW(192, X6); PACKROW(224, X7)

// OUTSIDE jumps to fail when a lane of the maximum X12 exceeds hi or a lane
// of the minimum X13 is below X15. Clobbers AX.
#define OUTSIDE(hi, fail) \
	PCMPGTW hi, X12; PCMPGTW X13, X15; POR X15, X12; \
	PMOVMSKB X12, AX; TESTL AX, AX; JNZ fail

// DEQUANT loads level row off/32 into r as int16, folds it into X12 / X13,
// and multiplies it by the step in X14.
#define DEQUANT(off, r) \
	MOVOU off(SI), r; MOVOU off+16(SI), X8; PACKSSLW X8, r; \
	PMAXSW r, X12; PMINSW r, X13; PMULLW X14, r

// ADDPRED adds a prediction row to residual row r, clamps the sums to bytes
// and stores them, then steps both rows.
#define ADDPRED(r) \
	MOVQ (BX), X8; PUNPCKLBW X15, X8; PADDW r, X8; PACKUSWB X8, X8; \
	MOVQ X8, (DI); ADDQ CX, BX; ADDQ DX, DI

// func idctAddSSE2(levels *[64]int32, q, maxLevel int, pred *uint8, pstride int, dst *uint8, dstride int) (ok bool)
TEXT ·idctAddSSE2(SB), NOSPLIT, $256-57
	MOVQ levels+0(FP), SI
	BCAST16(q+8(FP), X14)
	PXOR X12, X12
	PXOR X13, X13
	DEQUANT(0, X0); DEQUANT(32, X1); DEQUANT(64, X2); DEQUANT(96, X3)
	DEQUANT(128, X4); DEQUANT(160, X5); DEQUANT(192, X6); DEQUANT(224, X7)
	BCAST16(maxLevel+16(FP), X14)
	PXOR X15, X15
	PSUBW X14, X15
	OUTSIDE(X14, fallback)

	// Pass 1 down the columns: each register is a coefficient row and each
	// lane a column, so output i is row i of the intermediate block.
	IPASS($4096, 13)
	PXOR X12, X12
	PXOR X13, X13
	PACKROWS
	MOVOU SATLO, X15
	OUTSIDE(SATHI, fallback)

	// Pass 2 along the rows: output i is column i of the residual.
	TRANSPOSE
	IPASS($65536, 17)
	PACKROWS
	TRANSPOSE

	MOVQ pred+24(FP), BX
	MOVQ pstride+32(FP), CX
	MOVQ dst+40(FP), DI
	MOVQ dstride+48(FP), DX
	PXOR X15, X15
	ADDPRED(X0); ADDPRED(X1); ADDPRED(X2); ADDPRED(X3)
	ADDPRED(X4); ADDPRED(X5); ADDPRED(X6); ADDPRED(X7)
	MOVB $1, ok+56(FP)
	RET

fallback:
	MOVB $0, ok+56(FP)
	RET
