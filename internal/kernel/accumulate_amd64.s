#include "textflag.h"
#include "go_asm.h"

// accumulateLJAVX2 is software-pipelined: while the hits of group g wait to
// be added, the displacements and the potential of group g+1 are computed,
// so the latency of the divisions overlaps the additions. A group's results
// wait in the frame (the stash) until they are added.
//
// Register use:
//
//	SI  group g's hits   CX  end of the full groups
//	R8  ppos   R9  ghostPos   R10  frc   R11  gfrc   R12  shift
//	AX, BX, DX, R13  scratch
//
//	X0  [pot vir]   Y1  sig2   Y5  shiftE   Y6  eps4   Y7  eps24
//	Y2  nh-1   Y3  hitGhost+ng-1   Y4  hitGhost+maxIndex (CHECK's bounds and mask)
//	X8-X11, X12-X15  d.X-Y and d.Z of group g+1's lanes 0-3, then its
//	                 vector work, which leaves Y14, Y15, Y9, Y8 and Y12 to stash
//	X10, X11         scratch of ADDHIT
//
// Frame, the stash: one 32-byte word each, z-32 (fv.Z of lanes 0-3),
// ev13-64 and ev02-96 ([e f*r2] of lanes 1, 3 and of lanes 0, 2), xy13-128
// and xy02-160 (fv.X-Y of lanes 1, 3 and of lanes 0, 2).

// CHECK jumps to out unless every hit of the group at off(SI) names
// indices inside their bounds: a < nh and b < nh, or b < ng for a ghost
// b, where nh and ng are the shorter of the slice a lane reads and the one
// it writes. With the ghost bit kept on b, a ghost b is at least hitGhost,
// so one signed comparison with a per-lane bound decides it.
#define CHECK(off, out) \
	VMOVDQU   off(SI), Y8;                                  \
	VPSRLQ    $const_hitAShift, Y8, Y9;                     \
	VPCMPGTQ  Y2, Y9, Y9;                                   \
	VPSLLQ    $(63-const_hitIndexBits), Y8, Y10;            \
	VBLENDVPD Y10, Y3, Y2, Y10;                             \
	VPAND     Y4, Y8, Y11;                                  \
	VPCMPGTQ  Y10, Y11, Y11;                                \
	VPOR      Y11, Y9, Y9;                                  \
	VPTEST    Y9, Y9;                                       \
	JNE       out

// DISPLACE decodes the hit at off(SI) and leaves its displacement
// d = (p - q) - t in xy (X and Y) and z (Z): p = ppos[a], q = ppos[b] or
// ghostPos[b], t = shift[code].
#define DISPLACE(off, xy, z) \
	MOVQ    off(SI), AX;             \
	MOVQ    AX, BX;                  \
	SHRQ    $const_hitAShift, BX;    \
	LEAQ    (BX)(BX*2), BX;          \
	VMOVUPD (R8)(BX*8), xy;          \
	VMOVSD  16(R8)(BX*8), z;         \
	MOVQ    AX, DX;                  \
	ANDQ    $const_maxIndex, DX;     \
	LEAQ    (DX)(DX*2), DX;          \
	MOVQ    R8, R13;                 \
	BTQ     $const_hitIndexBits, AX; \
	CMOVQCS R9, R13;                 \
	VSUBPD  (R13)(DX*8), xy, xy;     \
	VSUBSD  16(R13)(DX*8), z, z;     \
	SHRQ    $const_hitCodeShift, AX; \
	ANDQ    $31, AX;                 \
	LEAQ    (AX)(AX*2), AX;          \
	VSUBPD  (R12)(AX*8), xy, xy;     \
	VSUBSD  16(R12)(AX*8), z, z

// EVALUATE checks the group at off(SI) (CHECK) and turns its hits into
// what ADDHIT adds: it computes the displacements, transposes them to dx,
// dy, dz and computes r2 = (dx*dx + dy*dy) + dz*dz, sr2 = sig2/r2,
// sr6 = (sr2*sr2)*sr2, sr12 = sr6*sr6, e = eps4*(sr12-sr6) - shiftE,
// f = (eps24*(2*sr12-sr6))/r2, f*r2 and fv = f*d, then pairs the lanes
// again: fv.X-Y of lanes 0, 2 in Y14 and of lanes 1, 3 in Y15, [e f*r2]
// of lanes 0, 2 in Y9 and of lanes 1, 3 in Y8, fv.Z in Y12.
#define EVALUATE(off, out) \
	CHECK(off, out);                  \
	DISPLACE(off, X8, X12);           \
	DISPLACE(off+8, X9, X13);         \
	DISPLACE(off+16, X10, X14);       \
	DISPLACE(off+24, X11, X15);       \
	VINSERTF128 $1, X10, Y8, Y8;      \
	VINSERTF128 $1, X11, Y9, Y9;      \
	VUNPCKLPD   X13, X12, X12;        \
	VUNPCKLPD   X15, X14, X14;        \
	VINSERTF128 $1, X14, Y12, Y12;    \
	VUNPCKLPD   Y9, Y8, Y10;          \
	VUNPCKHPD   Y9, Y8, Y11;          \
	VMULPD      Y10, Y10, Y13;        \
	VMULPD      Y11, Y11, Y14;        \
	VADDPD      Y14, Y13, Y13;        \
	VMULPD      Y12, Y12, Y14;        \
	VADDPD      Y14, Y13, Y13;        \
	VDIVPD      Y13, Y1, Y14;         \
	VMULPD      Y14, Y14, Y15;        \
	VMULPD      Y14, Y15, Y15;        \
	VMULPD      Y15, Y15, Y14;        \
	VSUBPD      Y15, Y14, Y8;         \
	VMULPD      Y6, Y8, Y8;           \
	VSUBPD      Y5, Y8, Y8;           \
	VADDPD      Y14, Y14, Y9;         \
	VSUBPD      Y15, Y9, Y9;          \
	VMULPD      Y7, Y9, Y9;           \
	VDIVPD      Y13, Y9, Y9;          \
	VMULPD      Y9, Y13, Y13;         \
	VMULPD      Y9, Y10, Y10;         \
	VMULPD      Y9, Y11, Y11;         \
	VMULPD      Y9, Y12, Y12;         \
	VUNPCKLPD   Y11, Y10, Y14;        \
	VUNPCKHPD   Y11, Y10, Y15;        \
	VUNPCKLPD   Y13, Y8, Y9;          \
	VUNPCKHPD   Y13, Y8, Y8

// STASH stores EVALUATE's results for ADDHIT.
#define STASH \
	VMOVUPD Y14, xy02-160(SP); \
	VMOVUPD Y15, xy13-128(SP); \
	VMOVUPD Y9, ev02-96(SP);   \
	VMOVUPD Y8, ev13-64(SP);   \
	VMOVUPD Y12, z-32(SP)

// ADDHIT adds the hit at off(SI), whose stashed lane is xy, z and ev, into
// the accumulators with the Go loop's operations in its order:
// frc[a] = frc[a] + fv, [pot vir] += ev (two independent lanes), then
// frc[b] = frc[b] - fv, or gfrc[b] for a ghost b.
#define ADDHIT(off, xy, z, ev) \
	MOVQ    off(SI), AX;             \
	MOVQ    AX, BX;                  \
	SHRQ    $const_hitAShift, BX;    \
	LEAQ    (BX)(BX*2), BX;          \
	VMOVUPD (R10)(BX*8), X10;        \
	VADDPD  xy, X10, X10;            \
	VMOVUPD X10, (R10)(BX*8);        \
	VMOVSD  16(R10)(BX*8), X11;      \
	VADDSD  z, X11, X11;             \
	VMOVSD  X11, 16(R10)(BX*8);      \
	VADDPD  ev, X0, X0;              \
	MOVQ    AX, DX;                  \
	ANDQ    $const_maxIndex, DX;     \
	LEAQ    (DX)(DX*2), DX;          \
	MOVQ    R10, BX;                 \
	BTQ     $const_hitIndexBits, AX; \
	CMOVQCS R11, BX;                 \
	VMOVUPD (BX)(DX*8), X10;         \
	VSUBPD  xy, X10, X10;            \
	VMOVUPD X10, (BX)(DX*8);         \
	VMOVSD  16(BX)(DX*8), X11;       \
	VSUBSD  z, X11, X11;             \
	VMOVSD  X11, 16(BX)(DX*8)

// ADDGROUP adds the four stashed hits at SI, in order.
#define ADDGROUP \
	ADDHIT(0, xy0-160(SP), z0-32(SP), ev0-96(SP));  \
	ADDHIT(8, xy1-128(SP), z1-24(SP), ev1-64(SP));  \
	ADDHIT(16, xy2-144(SP), z2-16(SP), ev2-80(SP)); \
	ADDHIT(24, xy3-112(SP), z3-8(SP), ev3-48(SP))

// func accumulateLJAVX2(hits []uint64, ppos, ghostPos, frc, gfrc []vec.V, shift *[32]vec.V, c ljCoef, pot, vir float64) (k int, potOut, virOut float64)
TEXT ·accumulateLJAVX2(SB), NOSPLIT, $160-200
	MOVQ hits_base+0(FP), SI
	MOVQ hits_len+8(FP), CX
	ANDQ $~3, CX
	LEAQ (SI)(CX*8), CX
	MOVQ ppos_base+24(FP), R8
	MOVQ ghostPos_base+48(FP), R9
	MOVQ frc_base+72(FP), R10
	MOVQ gfrc_base+96(FP), R11
	MOVQ shift+120(FP), R12

	// CHECK's bounds: nh-1 with nh = min(len(ppos), len(frc)), and
	// hitGhost+ng-1 with ng = min(len(ghostPos), len(gfrc)).
	MOVQ         ppos_len+32(FP), AX
	MOVQ         frc_len+80(FP), BX
	CMPQ         BX, AX
	CMOVQLT      BX, AX
	DECQ         AX
	VMOVQ        AX, X2
	VPBROADCASTQ X2, Y2
	MOVQ         ghostPos_len+56(FP), AX
	MOVQ         gfrc_len+104(FP), BX
	CMPQ         BX, AX
	CMOVQLT      BX, AX
	ADDQ         $(const_hitGhost-1), AX
	VMOVQ        AX, X3
	VPBROADCASTQ X3, Y3
	MOVQ         $(const_hitGhost+const_maxIndex), AX
	VMOVQ        AX, X4
	VPBROADCASTQ X4, Y4

	VMOVSD       pot+160(FP), X0
	VMOVHPD      vir+168(FP), X0, X0
	VBROADCASTSD c_sig2+128(FP), Y1
	VBROADCASTSD c_shiftE+152(FP), Y5
	VBROADCASTSD c_eps4+136(FP), Y6
	VBROADCASTSD c_eps24+144(FP), Y7

	CMPQ SI, CX
	JEQ  done
	EVALUATE(0, done)
	STASH

	// Evaluate group g+1, add group g, stash g+1. At the last group, or
	// when group g+1 names an index past its bound, add group g and stop:
	// the Go loop takes the rest.
group:
	LEAQ 32(SI), AX
	CMPQ AX, CX
	JEQ  last
	EVALUATE(32, last)
	ADDGROUP
	STASH
	ADDQ $32, SI
	JMP  group

last:
	ADDGROUP
	ADDQ $32, SI

done:
	SUBQ    hits_base+0(FP), SI
	SHRQ    $3, SI
	MOVQ    SI, k+176(FP)
	VMOVSD  X0, potOut+184(FP)
	VMOVHPD X0, virOut+192(FP)
	VZEROUPPER
	RET
