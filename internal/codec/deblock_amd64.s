#include "textflag.h"

// SSE2 bodies of filterSpan, specified by filterSpanGo (deblock.go). One
// span is 16 edge positions, so each of p1, p0, q0 and q1 is one register of
// 16 bytes, one lane per position. The filter condition is taken at byte
// width — a distance is the OR of the two saturating differences, and
// "x < t" is "x minus (t − 1), saturating, is zero" — and a span whose lanes
// all fail it is left as it is, which at low QP is most spans. Otherwise d is
// formed on int16 lanes, eight positions at a time: s = 3·(q0 − p0) + p1 − q1
// (|s| ≤ 1 020), s + 7 where s is negative so that the arithmetic shift
// truncates toward zero as Go's division does, d = s >> 3 clamped to ±β and
// zeroed on the failing lanes; p0 + d and q0 − d go back through PACKUSWB,
// which is clampPixI. A failing lane stores the byte it loaded.

// BCAST8 sets every byte of r to the low byte of v − 1; BCAST16 sets every
// int16 lane of r to the low word of v. Both clobber AX.
#define BCAST8(v, r) MOVQ v, AX; DECQ AX; MOVL AX, r; PUNPCKLBW r, r; PSHUFLW $0, r, r; PSHUFD $0, r, r
#define BCAST16(v, r) MOVQ v, AX; MOVL AX, r; PSHUFLW $0, r, r; PSHUFD $0, r, r

// ABSDIFF sets r to |a − b| per byte. Clobbers X15.
#define ABSDIFF(a, b, r) MOVO a, r; PSUBUSB b, r; MOVO b, X15; PSUBUSB a, X15; POR X15, r

// DELTA sets X14 to the clamped, masked d of eight positions from their
// int16 p1, p0, q0, q1 and mask lanes, with β in X4, −β in X5 and 7 in X7.
// Clobbers X15.
#define DELTA(p1, p0, q0, q1, m) \
	MOVO q0, X14; PSUBW p0, X14; MOVO X14, X15; PADDW X14, X14; PADDW X15, X14; \
	PADDW p1, X14; PSUBW q1, X14; \
	MOVO X14, X15; PSRAW $15, X15; PAND X7, X15; PADDW X15, X14; PSRAW $3, X14; \
	PMINSW X4, X14; PMAXSW X5, X14; PAND m, X14

// FILTER filters the 16 positions in X0 (p1), X1 (p0), X2 (q0) and X3 (q1)
// at the thresholds alpha+16(FP) and beta+24(FP) and leaves the new p0 in
// X10 and q0 in X11, or jumps to skip when no position passes the
// condition. Clobbers X0-X15 and AX.
#define FILTER(skip) \
	BCAST8(alpha+16(FP), X4); BCAST8(beta+24(FP), X5); \
	ABSDIFF(X2, X1, X6); \
	ABSDIFF(X0, X1, X7); PSUBUSB X5, X7; \
	ABSDIFF(X3, X2, X8); PSUBUSB X5, X8; POR X8, X7; \
	MOVO X6, X8; PSUBUSB X4, X8; POR X8, X7; \
	PXOR X9, X9; PCMPEQB X9, X7; PCMPEQB X9, X6; PANDN X7, X6; \
	PMOVMSKB X6, AX; TESTL AX, AX; JZ skip; \
	BCAST16(beta+24(FP), X4); PXOR X5, X5; PSUBW X4, X5; \
	PCMPEQW X7, X7; PSRLW $13, X7; \
	MOVO X1, X10; PUNPCKLBW X9, X10; MOVO X2, X11; PUNPCKLBW X9, X11; \
	MOVO X0, X12; PUNPCKLBW X9, X12; MOVO X3, X13; PUNPCKLBW X9, X13; \
	MOVO X6, X8; PUNPCKLBW X6, X8; \
	DELTA(X12, X10, X11, X13, X8); PADDW X14, X10; PSUBW X14, X11; \
	PUNPCKHBW X9, X0; PUNPCKHBW X9, X1; PUNPCKHBW X9, X2; PUNPCKHBW X9, X3; \
	PUNPCKHBW X6, X6; \
	DELTA(X0, X1, X2, X3, X6); PADDW X14, X1; PSUBW X14, X2; \
	PACKUSWB X1, X10; PACKUSWB X2, X11

// func deblockRowsSSE2(p *uint8, stride, alpha, beta int)
TEXT ·deblockRowsSSE2(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ stride+8(FP), BX
	LEAQ (SI)(BX*2), DI
	MOVOU (SI), X0
	MOVOU (SI)(BX*1), X1
	MOVOU (DI), X2
	MOVOU (DI)(BX*1), X3
	FILTER(rowsdone)
	MOVOU X10, (SI)(BX*1)
	MOVOU X11, (DI)
rowsdone:
	RET

// STORE4 stores the four words of AX, low to high, at a, b, c and d.
#define STORE4(a, b, c, d) \
	MOVW AX, a; SHRQ $16, AX; MOVW AX, b; SHRQ $16, AX; \
	MOVW AX, c; SHRQ $16, AX; MOVW AX, d

// func deblockColsSSE2(p *uint8, stride, alpha, beta int)
//
// Positions are rows here. Rows 0-3, 4-7, 8-11 and 12-15 start at SI, DI, R8
// and R9. Their four bytes are gathered into X0-X3 and transposed so that
// lane i of X0 … X3 holds p1 … q1 of row L(i), L = 0 2 4 6 1 3 5 7 8 10 12
// 14 9 11 13 15; the new p0 and q0 go back as one word per row.
TEXT ·deblockColsSSE2(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ stride+8(FP), BX
	LEAQ (BX)(BX*2), CX
	LEAQ (SI)(BX*4), DI
	LEAQ (DI)(BX*4), R8
	LEAQ (R8)(BX*4), R9
	MOVL (SI), X0; MOVL (SI)(BX*1), X4; PUNPCKLLQ X4, X0
	MOVL (SI)(BX*2), X5; MOVL (SI)(CX*1), X4; PUNPCKLLQ X4, X5; PUNPCKLQDQ X5, X0
	MOVL (DI), X1; MOVL (DI)(BX*1), X4; PUNPCKLLQ X4, X1
	MOVL (DI)(BX*2), X5; MOVL (DI)(CX*1), X4; PUNPCKLLQ X4, X5; PUNPCKLQDQ X5, X1
	MOVL (R8), X2; MOVL (R8)(BX*1), X4; PUNPCKLLQ X4, X2
	MOVL (R8)(BX*2), X5; MOVL (R8)(CX*1), X4; PUNPCKLLQ X4, X5; PUNPCKLQDQ X5, X2
	MOVL (R9), X3; MOVL (R9)(BX*1), X4; PUNPCKLLQ X4, X3
	MOVL (R9)(BX*2), X5; MOVL (R9)(CX*1), X4; PUNPCKLLQ X4, X5; PUNPCKLQDQ X5, X3

	// Bytes, in two rounds, after which doubleword j of X1 / X4 / X3 / X5 is
	// column j of rows 0 2 4 6, 1 3 5 7, 8 10 12 14 and 9 11 13 15.
	MOVO X0, X4; PUNPCKLBW X1, X4; PUNPCKHBW X1, X0
	MOVO X2, X5; PUNPCKLBW X3, X5; PUNPCKHBW X3, X2
	MOVO X4, X1; PUNPCKLBW X0, X1; PUNPCKHBW X0, X4
	MOVO X5, X3; PUNPCKLBW X2, X3; PUNPCKHBW X2, X5
	// Doublewords, then quadwords: one column per register.
	MOVO X1, X0; PUNPCKLLQ X4, X0; PUNPCKHLQ X4, X1
	MOVO X3, X2; PUNPCKLLQ X5, X2; PUNPCKHLQ X5, X3
	MOVO X0, X4; PUNPCKLQDQ X2, X4; PUNPCKHQDQ X2, X0
	MOVO X1, X5; PUNPCKLQDQ X3, X5; PUNPCKHQDQ X3, X1
	MOVO X1, X3; MOVO X0, X1; MOVO X4, X0; MOVO X5, X2

	FILTER(colsdone)
	MOVO X10, X12; PUNPCKLBW X11, X12; PUNPCKHBW X11, X10
	MOVQ X12, AX
	STORE4(1(SI), 1(SI)(BX*2), 1(DI), 1(DI)(BX*2))
	PSRLDQ $8, X12; MOVQ X12, AX
	STORE4(1(SI)(BX*1), 1(SI)(CX*1), 1(DI)(BX*1), 1(DI)(CX*1))
	MOVQ X10, AX
	STORE4(1(R8), 1(R8)(BX*2), 1(R9), 1(R9)(BX*2))
	PSRLDQ $8, X10; MOVQ X10, AX
	STORE4(1(R8)(BX*1), 1(R8)(CX*1), 1(R9)(BX*1), 1(R9)(CX*1))
colsdone:
	RET
