#include "textflag.h"

// SSE2 bodies of the row kernels specified by the Go bodies in kernels.go.
// Planes are not 16-byte aligned and the search steps by one sample, so every
// load is MOVOU. Callers have proved all touched bytes in bounds.

// ROWSUM adds the row SAD in X1 (two PSADBW lanes) to the two-lane
// accumulator X0, folds the lanes into R8 and leaves the flags of
// sum - earlyExit (DX): the early exit is taken per completed row.
#define ROWSUM \
	PADDQ  X1, X0; \
	PSHUFD $0xEE, X0, X2; \
	PADDQ  X0, X2; \
	MOVQ   X2, R8; \
	CMPQ   R8, DX

// func sad16SSE2(pa *uint8, wa int, pb *uint8, wb, h, earlyExit int) int
TEXT ·sad16SSE2(SB), NOSPLIT, $0-56
	MOVQ pa+0(FP), SI
	MOVQ wa+8(FP), AX
	MOVQ pb+16(FP), DI
	MOVQ wb+24(FP), BX
	MOVQ h+32(FP), CX
	MOVQ earlyExit+40(FP), DX
	PXOR X0, X0
	XORQ R8, R8
	TESTQ CX, CX
	JLE  done

loop:
	MOVOU  (SI), X1
	MOVOU  (DI), X3
	PSADBW X3, X1
	ROWSUM
	JGE    done
	ADDQ   AX, SI
	ADDQ   BX, DI
	DECQ   CX
	JNZ    loop

done:
	MOVQ R8, ret+48(FP)
	RET

// func sad16avg2SSE2(pa *uint8, wa int, pb *uint8, wb, off, h, earlyExit int) int
// PAVGB is (x+y+1)>>1 bytewise: avgUp8.
TEXT ·sad16avg2SSE2(SB), NOSPLIT, $0-64
	MOVQ pa+0(FP), SI
	MOVQ wa+8(FP), AX
	MOVQ pb+16(FP), DI
	MOVQ wb+24(FP), BX
	MOVQ off+32(FP), R9
	MOVQ h+40(FP), CX
	MOVQ earlyExit+48(FP), DX
	PXOR X0, X0
	XORQ R8, R8
	TESTQ CX, CX
	JLE  done

loop:
	MOVOU  (DI), X3
	MOVOU  (DI)(R9*1), X4
	PAVGB  X4, X3
	MOVOU  (SI), X1
	PSADBW X3, X1
	ROWSUM
	JGE    done
	ADDQ   AX, SI
	ADDQ   BX, DI
	DECQ   CX
	JNZ    loop

done:
	MOVQ R8, ret+56(FP)
	RET

// HSUM leaves the sixteen word sums b[i]+b[i+1] of the row at (DI) in lo
// (samples 0..7) and hi (8..15); it reads b[0..16]. X7 is zero; clobbers
// X4, X5.
#define HSUM(lo, hi) \
	MOVOU     (DI), lo; \
	MOVOU     1(DI), X4; \
	MOVO      lo, hi; \
	MOVO      X4, X5; \
	PUNPCKLBW X7, lo; \
	PUNPCKHBW X7, hi; \
	PUNPCKLBW X7, X4; \
	PUNPCKHBW X7, X5; \
	PADDW     X4, lo; \
	PADDW     X5, hi

// func sad16avg4SSE2(pa *uint8, wa int, pb *uint8, wb, h, earlyExit int) int
// The four-tap phase widens to words so that (x+y+z+w+2)>>2 is exact. Each
// reference row is summed horizontally once: the sums of the row below
// (X10, X11) become the next row's sums of the row above (X8, X9).
TEXT ·sad16avg4SSE2(SB), NOSPLIT, $0-56
	MOVQ pa+0(FP), SI
	MOVQ wa+8(FP), AX
	MOVQ pb+16(FP), DI
	MOVQ wb+24(FP), BX
	MOVQ h+32(FP), CX
	MOVQ earlyExit+40(FP), DX
	PXOR X0, X0
	XORQ R8, R8
	TESTQ CX, CX
	JLE  done
	PXOR    X7, X7
	PCMPEQW X6, X6 // every word of X6 = 2
	PSRLW   $15, X6
	PSLLW   $1, X6
	HSUM(X8, X9)

loop:
	ADDQ     BX, DI
	HSUM(X10, X11)
	PADDW    X10, X8
	PADDW    X11, X9
	PADDW    X6, X8
	PADDW    X6, X9
	PSRLW    $2, X8
	PSRLW    $2, X9
	PACKUSWB X9, X8
	MOVOU    (SI), X1
	PSADBW   X8, X1
	ROWSUM
	JGE      done
	MOVO     X10, X8
	MOVO     X11, X9
	ADDQ     AX, SI
	DECQ     CX
	JNZ      loop

done:
	MOVQ R8, ret+48(FP)
	RET

// func ssdSSE2(a, b *uint8, n int) uint64
// |a − b| is the OR of the two saturating differences; widened to words,
// PMADDWL squares and pairs them into dwords. A dword lane gains at most
// 4·255² per 16 samples, so the dword sums are folded into the qword total
// X0 every 4096 blocks (65536 samples) at the latest, long before 2^32. An
// 8-sample block and then single samples take the tail.
TEXT ·ssdSSE2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	PXOR X0, X0
	PXOR X7, X7

chunk:
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   tail8
	CMPQ DX, $4096
	JLE  blocks
	MOVQ $4096, DX

blocks:
	MOVQ DX, R8
	SHLQ $4, R8
	SUBQ R8, CX
	PXOR X6, X6

block:
	MOVOU     (SI), X1
	MOVOU     (DI), X2
	MOVO      X1, X3
	PSUBUSB   X2, X3
	PSUBUSB   X1, X2
	POR       X3, X2
	MOVO      X2, X3
	PUNPCKLBW X7, X2
	PUNPCKHBW X7, X3
	PMADDWL   X2, X2
	PMADDWL   X3, X3
	PADDL     X2, X6
	PADDL     X3, X6
	ADDQ      $16, SI
	ADDQ      $16, DI
	DECQ      DX
	JNZ       block
	MOVO      X6, X5
	PUNPCKLLQ X7, X6
	PUNPCKHLQ X7, X5
	PADDQ     X6, X0
	PADDQ     X5, X0
	JMP       chunk

tail8:
	CMPQ      CX, $8
	JLT       tail1
	MOVQ      (SI), X1
	MOVQ      (DI), X2
	MOVO      X1, X3
	PSUBUSB   X2, X3
	PSUBUSB   X1, X2
	POR       X3, X2
	PUNPCKLBW X7, X2
	PMADDWL   X2, X2
	MOVO      X2, X5
	PUNPCKLLQ X7, X2
	PUNPCKHLQ X7, X5
	PADDQ     X2, X0
	PADDQ     X5, X0
	ADDQ      $8, SI
	ADDQ      $8, DI
	SUBQ      $8, CX

tail1:
	TESTQ CX, CX
	JZ    done

sample:
	MOVBLZX (SI), R8
	MOVBLZX (DI), R9
	SUBL    R9, R8
	IMULL   R8, R8
	ADDQ    R8, AX
	INCQ    SI
	INCQ    DI
	DECQ    CX
	JNZ     sample

done:
	PSHUFD $0xEE, X0, X1
	PADDQ  X1, X0
	MOVQ   X0, R8
	ADDQ   R8, AX
	MOVQ   AX, ret+24(FP)
	RET
