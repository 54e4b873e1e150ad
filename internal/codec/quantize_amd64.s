#include "textflag.h"

// SSE2 body of quantizeBlock, specified by quantizeBlockGo (dct_fixed.go):
// four coefficients a step, branch-free, every load and store MOVOU (a block
// is a Go array with no alignment promise).
//
//   |c|          PSRAL $31 gives the sign s; (c ^ s) - s.
//   level        (|c|·recip + 2^23) >> 24 is (|c|·(recip << 8) + 2^31) >> 32,
//                the high half of a 64-bit sum. PMULULQ (Intel's PMULUDQ)
//                forms the exact products of lanes 0 and 2, and of lanes 1
//                and 3 after PSHUFD moves them down; the even products' high
//                halves shift down, the odd ones' are masked in place, and
//                an OR merges four 32-bit levels. |c| < 2^31 and
//                recip << 8 < 2^29, so nothing wraps.
//   bitLen       CVTPL2PS is exact below 2^24, so a level's float exponent
//                field is 126 + bitLen(level) for a nonzero level and 0 for
//                zero; PSUBUSW 126 (the field sits in each lane's low word)
//                leaves bitLen on both.
//   significance bitLen is 0 exactly for a zero level: PCMPEQL against zero,
//                packed 16 lanes at a time into bytes for PMOVMSKB; the
//                inverted mask is sig.

// Registers held across the block: SI coef, DI levels, R8 zero-level mask,
// X8 recip << 8 in both quadwords, X9 2^31 in both quadwords, X10 126 in
// every lane, X11 zero, X12 per-lane bitLen sums, X13 the high half of
// each quadword set.

// QUANT4 quantizes coef[off/4 : off/4+4] into the same lanes of levels, adds
// the levels' bit lengths to X12 and leaves -1 in the lanes of mask whose
// level is zero, 0 in the others. Clobbers X0-X2.
#define QUANT4(off, mask) \
	MOVOU    off(SI), X0; \
	MOVO     X0, X1; \
	PSRAL    $31, X1; \
	PXOR     X1, X0; \
	PSUBL    X1, X0; \
	PSHUFD   $0xF5, X0, X2; \
	PMULULQ  X8, X0; \
	PMULULQ  X8, X2; \
	PADDQ    X9, X0; \
	PADDQ    X9, X2; \
	PSRLQ    $32, X0; \
	PAND     X13, X2; \
	POR      X2, X0; \
	CVTPL2PS X0, mask; \
	PSRLL    $23, mask; \
	PSUBUSW  X10, mask; \
	PADDL    mask, X12; \
	PCMPEQL  X11, mask; \
	PXOR     X1, X0; \
	PSUBL    X1, X0; \
	MOVOU    X0, off(DI)

// MASK16 packs the zero-level masks of 16 consecutive lanes (X4 lowest ..
// X7 highest) into 16 bits and shifts them in at the bottom of R8.
#define MASK16 \
	PACKSSLW X5, X4; \
	PACKSSLW X7, X6; \
	PACKSSWB X6, X4; \
	PMOVMSKB X4, AX; \
	SHLQ     $16, R8; \
	ORQ      AX, R8

// func quantizeBlockSSE2(coef, levels *[64]int32, recip int64) (sig uint64, lenSum int)
TEXT ·quantizeBlockSSE2(SB), NOSPLIT, $0-40
	MOVQ       coef+0(FP), SI
	MOVQ       levels+8(FP), DI
	MOVQ       recip+16(FP), AX
	SHLQ       $8, AX
	MOVQ       AX, X8
	PUNPCKLQDQ X8, X8
	MOVQ       $0x80000000, AX
	MOVQ       AX, X9
	PUNPCKLQDQ X9, X9
	MOVL       $126, AX
	MOVL       AX, X10
	PSHUFD     $0, X10, X10
	PXOR       X11, X11
	PXOR       X12, X12
	PCMPEQL    X13, X13
	PSLLQ      $32, X13
	XORQ       R8, R8

	// Highest 16 lanes first: each MASK16 pushes the earlier ones up.
	QUANT4(192, X4)
	QUANT4(208, X5)
	QUANT4(224, X6)
	QUANT4(240, X7)
	MASK16
	QUANT4(128, X4)
	QUANT4(144, X5)
	QUANT4(160, X6)
	QUANT4(176, X7)
	MASK16
	QUANT4(64, X4)
	QUANT4(80, X5)
	QUANT4(96, X6)
	QUANT4(112, X7)
	MASK16
	QUANT4(0, X4)
	QUANT4(16, X5)
	QUANT4(32, X6)
	QUANT4(48, X7)
	MASK16

	NOTQ   R8
	MOVQ   R8, sig+24(FP)
	PSHUFD $0x4E, X12, X0
	PADDL  X0, X12
	PSHUFD $0xB1, X12, X0
	PADDL  X0, X12
	MOVL   X12, AX
	MOVQ   AX, lenSum+32(FP)
	RET
