#include "textflag.h"

// SSE2 body of intraSAD, specified by intraSADGo (encoder.go). Two 8-pixel
// rows of the block share one register (MOVQ + MOVHPS), and PSADBW scores
// the pair against each mode's prediction of those rows at once: dc in all
// 16 bytes, the top row in both halves, left[y] ×8 | left[y+1] ×8. PSADBW
// leaves one partial sum in each 64-bit half; four pairs accumulate with
// PADDQ, and PSHUFD $0x4E folds the halves. A sum is at most 64·255, so no
// lane overflows.

// PAIR scores rows y and y+1 (at SI and SI+BX, then advances SI two rows)
// against DC in X8, V in X9 and H in href, accumulating into X5, X6 and X7.
// Clobbers X0 and X1.
#define PAIR(href) \
	MOVQ (SI), X0; MOVHPS (SI)(BX*1), X0; LEAQ (SI)(BX*2), SI; \
	MOVO X0, X1; PSADBW X8, X1; PADDQ X1, X5; \
	MOVO X0, X1; PSADBW X9, X1; PADDQ X1, X6; \
	PSADBW href, X0; PADDQ X0, X7

// FOLD adds the high 64-bit half of r to its low half and stores it at dst.
// Clobbers X0 and AX.
#define FOLD(r, dst) PSHUFD $0x4E, r, X0; PADDQ r, X0; MOVQ X0, AX; MOVQ AX, dst

// func intraSADSSE2(cur *uint8, stride int, top, left *[8]uint8, dc uint8) (sadDC, sadV, sadH int)
TEXT ·intraSADSSE2(SB), NOSPLIT, $0-64
	MOVQ cur+0(FP), SI
	MOVQ stride+8(FP), BX
	MOVQ top+16(FP), AX
	MOVQ left+24(FP), CX
	MOVBLZX dc+32(FP), DX

	// X8 = dc ×16, X9 = top | top.
	MOVL DX, X8
	PUNPCKLBW X8, X8
	PSHUFLW $0, X8, X8
	PSHUFD $0, X8, X8
	MOVQ (AX), X9
	PUNPCKLQDQ X9, X9

	// X10 … X13 = left[y] ×8 | left[y+1] ×8 for y = 0, 2, 4, 6.
	MOVQ (CX), X10
	PUNPCKLBW X10, X10
	MOVO X10, X12
	PUNPCKLWL X10, X10
	PUNPCKHWL X12, X12
	MOVO X10, X11
	PUNPCKLLQ X10, X10
	PUNPCKHLQ X11, X11
	MOVO X12, X13
	PUNPCKLLQ X12, X12
	PUNPCKHLQ X13, X13

	PXOR X5, X5
	PXOR X6, X6
	PXOR X7, X7
	PAIR(X10)
	PAIR(X11)
	PAIR(X12)
	PAIR(X13)

	FOLD(X5, sadDC+40(FP))
	FOLD(X6, sadV+48(FP))
	FOLD(X7, sadH+56(FP))
	RET
