#include "textflag.h"
#include "go_asm.h"

// Register use of searchShiftAVX2:
//
//	DI  hits        BX  n           R8  row a         R9  end of lpos
//	R10 q           R11 full groups R12 last four q   R13 the tail (leafTab.long/short), or 0
//	R14 leafTab     SI  group's q   CX  groups left   AX, DX  kept lanes, count
//
//	Y0-Y2   p.X, p.Y, p.Z of row a        Y3-Y5  t.X, t.Y, t.Z    Y6  rc2
//	Y7      keys of the row's lanes 0-3   Y8     keys of the group
//	Y12-Y14 the group's q.X, q.Y, q.Z     Y9-Y11 scratch          Y15 zero

// TRANSPOSE takes a group of four neighbours as three 32-byte words,
// Y9 = [x0 y0 z0 x1], Y11 = [y1 z1 x2 y2], Y13 = [z2 x3 y3 z3], and leaves
// their X, Y and Z in Y12, Y13 and Y14.
#define TRANSPOSE \
	VPERM2F128 $0x21, Y13, Y9, Y10; \
	VBLENDPD   $0x0c, Y11, Y9, Y9;  \
	VBLENDPD   $0x0c, Y13, Y11, Y11; \
	VSHUFPD    $0x0a, Y10, Y9, Y12; \
	VSHUFPD    $0x05, Y11, Y9, Y13; \
	VSHUFPD    $0x0a, Y11, Y10, Y14

// KEEP computes the squared distances from row a to the TRANSPOSEd group,
// dx = (p.X - q.X) - t.X (likewise dy, dz) and r2 = (dx*dx + dy*dy) + dz*dz,
// and leaves in Y10 all ones in the lanes countHit counts: !(r2 >= rc2) —
// the predicate NGE_UQ, true on a NaN — and r2 not +0. The group stays.
#define KEEP \
	VSUBPD   Y12, Y0, Y9;        \
	VSUBPD   Y3, Y9, Y9;         \
	VSUBPD   Y13, Y1, Y10;       \
	VSUBPD   Y4, Y10, Y10;       \
	VSUBPD   Y14, Y2, Y11;       \
	VSUBPD   Y5, Y11, Y11;       \
	VMULPD   Y9, Y9, Y9;         \
	VMULPD   Y10, Y10, Y10;      \
	VMULPD   Y11, Y11, Y11;      \
	VADDPD   Y10, Y9, Y9;        \
	VADDPD   Y11, Y9, Y9;        \
	VCMPPD   $0x19, Y6, Y9, Y10; \
	VPCMPEQQ Y15, Y9, Y11;       \
	VPANDN   Y10, Y11, Y10

// PACK left-packs the keys of the lanes set in the mask AX into Y11 and
// sets DX to their count.
#define PACK(keys) \
	POPCNTQ AX, DX;                          \
	SHLQ    $5, AX;                          \
	VMOVDQU leafTables_pack(R14)(AX*1), Y11; \
	VPERMD  keys, Y11, Y11

// STORE stores the packed keys Y11 at hits[n] and adds their count DX to n.
// Four entries are written, unless fewer than four are left, which only a
// row's last step can meet: then just the kept ones, under a mask (the JA
// takes that path, the JMP skips it).
#define STORE \
	LEAQ       4(BX), AX;                         \
	CMPQ       AX, $const_hitCap;                 \
	JA         3(PC);                             \
	VMOVDQU    Y11, (DI)(BX*8);                   \
	JMP        5(PC);                             \
	MOVQ       DX, AX;                            \
	SHLQ       $5, AX;                            \
	VMOVDQU    leafTables_first(R14)(AX*1), Y10;  \
	VPMASKMOVQ Y11, Y10, (DI)(BX*8);              \
	ADDQ       DX, BX

// func searchShiftAVX2(hits *[hitCap]uint64, n uint64, key uint64, lpos, q []vec.V, t vec.V, rc2 float64) uint64
TEXT ·searchShiftAVX2(SB), NOSPLIT, $0-112
	MOVQ  hits+0(FP), DI
	MOVQ  n+8(FP), BX
	MOVQ  lpos_base+24(FP), R8
	MOVQ  lpos_len+32(FP), R9
	MOVQ  q_base+48(FP), R10
	MOVQ  q_len+56(FP), R11
	TESTQ R9, R9
	JZ    done
	TESTQ R11, R11
	JZ    done
	IMUL3Q $24, R9, R9
	ADDQ  R8, R9

	LEAQ         ·leafTab(SB), R14
	VBROADCASTSD t_X+72(FP), Y3
	VBROADCASTSD t_Y+80(FP), Y4
	VBROADCASTSD t_Z+88(FP), Y5
	VBROADCASTSD rc2+96(FP), Y6
	VPBROADCASTQ key+16(FP), Y7
	VPADDQ       leafTables_lane(R14), Y7, Y7
	VPXOR        Y15, Y15, Y15
	MOVQ         R11, AX
	ANDQ         $3, AX // k = len(q) mod 4
	SHRQ         $2, R11
	TESTQ        R11, R11
	JZ           short

	// Rows of at least four neighbours: the full groups, then, when k > 0,
	// the last four neighbours with only their k new lanes kept.
	XORQ  R13, R13
	TESTQ AX, AX
	JZ    long
	MOVQ  q_len+56(FP), R12
	IMUL3Q $24, R12, R12
	LEAQ  -96(R10)(R12*1), R12
	DECQ  AX
	IMUL3Q $longTail__size, AX, AX
	LEAQ  leafTables_long(R14)(AX*1), R13

long:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VMOVDQU      Y7, Y8
	MOVQ         R10, SI
	MOVQ         R11, CX

group:
	VMOVUPD   0(SI), Y9
	VMOVUPD   32(SI), Y11
	VMOVUPD   64(SI), Y13
	TRANSPOSE
	KEEP
	VMOVMSKPD Y10, AX
	PACK(Y8)
	VMOVDQU   Y11, (DI)(BX*8) // at least 4 candidates are left: n+4 <= hitCap
	ADDQ      DX, BX
	VPADDQ    leafTables_four(R14), Y8, Y8
	ADDQ      $96, SI
	DECQ      CX
	JNZ       group

	TESTQ     R13, R13
	JZ        longNext
	VMOVUPD   0(R12), Y9
	VMOVUPD   32(R12), Y11
	VMOVUPD   64(R12), Y13
	TRANSPOSE
	VPADDQ    longTail_delta(R13), Y8, Y8
	KEEP
	VPAND     longTail_keep(R13), Y10, Y10
	VMOVMSKPD Y10, AX
	PACK(Y8)
	STORE

longNext:
	VPADDQ leafTables_row(R14), Y7, Y7
	ADDQ   $24, R8
	CMPQ   R8, R9
	JNE    long
	JMP    done

	// Rows of k < 4 neighbours: one group, loaded under masks that stop at
	// q's end and transposed once for every row.
short:
	DECQ       AX
	IMUL3Q     $shortTail__size, AX, AX
	LEAQ       leafTables_short(R14)(AX*1), R13
	VMOVDQU    shortTail_load+0(R13), Y12
	VMASKMOVPD 0(R10), Y12, Y9
	VMOVDQU    shortTail_load+32(R13), Y12
	VMASKMOVPD 32(R10), Y12, Y11
	VMOVDQU    shortTail_load+64(R13), Y12
	VMASKMOVPD 64(R10), Y12, Y13
	TRANSPOSE

shortRow:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	KEEP
	VPAND        shortTail_keep(R13), Y10, Y10
	VMOVMSKPD    Y10, AX
	PACK(Y7)
	STORE
	VPADDQ       leafTables_row(R14), Y7, Y7
	ADDQ         $24, R8
	CMPQ         R8, R9
	JNE          shortRow

done:
	VZEROUPPER
	MOVQ BX, ret+104(FP)
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

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
