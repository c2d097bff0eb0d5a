#include "textflag.h"
#include "go_asm.h"

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

// KEEP0 is KEEP for the round term +0: (p - q) - 0 is p - q, bit for bit,
// so the subtraction is left out. KEEP0Q takes the group's q.X, q.Y and q.Z
// from the registers named.
#define KEEP0Q(qx, qy, qz) \
	VSUBPD   qx, Y0, Y9;         \
	VSUBPD   qy, Y1, Y10;        \
	VSUBPD   qz, Y2, Y11;        \
	VMULPD   Y9, Y9, Y9;         \
	VMULPD   Y10, Y10, Y10;      \
	VMULPD   Y11, Y11, Y11;      \
	VADDPD   Y10, Y9, Y9;        \
	VADDPD   Y11, Y9, Y9;        \
	VCMPPD   $0x19, Y6, Y9, Y10; \
	VPCMPEQQ Y15, Y9, Y11;       \
	VPANDN   Y10, Y11, Y10

#define KEEP0 KEEP0Q(Y12, Y13, Y14)

// PACK left-packs the keys of the lanes set in the mask AX into Y11 and
// sets DX to their count.
#define PACK(keys) \
	POPCNTQ AX, DX;                          \
	SHLQ    $5, AX;                          \
	VMOVDQU leafTables_pack(R14)(AX*1), Y11; \
	VPERMD  keys, Y11, Y11

// STOREALL stores the four packed keys Y11 at hits[n], whatever their count
// DX, and adds DX to n: the caller made room for three entries past the
// call's last candidate.
#define STOREALL \
	VMOVDQU Y11, (DI)(BX*8); \
	ADDQ    DX, BX

// LOADFOUR loads and TRANSPOSEs the four neighbours at q.
#define LOADFOUR(q) \
	VMOVUPD 0(q), Y9;   \
	VMOVUPD 32(q), Y11; \
	VMOVUPD 64(q), Y13; \
	TRANSPOSE

// SHORTLOAD loads and TRANSPOSEs the k <= 4 neighbours at q, under the
// masks of leafTab.short[k-1] at tab, which stop at their end.
#define SHORTLOAD(q, tab) \
	VMOVDQU    shortTail_load+0(tab), Y12;  \
	VMASKMOVPD 0(q), Y12, Y9;               \
	VMOVDQU    shortTail_load+32(tab), Y12; \
	VMASKMOVPD 32(q), Y12, Y11;             \
	VMOVDQU    shortTail_load+64(tab), Y12; \
	VMASKMOVPD 64(q), Y12, Y13;             \
	TRANSPOSE

// Register use of searchCellAVX2:
//
//	DI  hits         BX  n             R8  row a          R9  the unit
//	R10 the row's first neighbour in the frame's copy      R11 its count
//	R12 full groups of a row           R13 the unit's code, then 32 x the
//	R14 leafTab                            row's count mod 4
//	SI  q, then the group's q in the copy   CX  groups left
//	AX, DX  kept lanes, count
//
//	Y0-Y2   p.X, p.Y, p.Z of row a        Y3-Y5  t.X, t.Y, t.Z    Y6  rc2
//	Y7      keys of the row's lanes 0-3   Y8     keys of the group, or the
//	Y12-Y14 the group's q.X, q.Y, q.Z            lanes a unit's group keeps
//	Y9-Y11  scratch                       Y15    zero
//
// A unit of up to four neighbours keeps them, transposed, in Y12-Y14 for
// all its rows, and one of five to eight with the round term +0 in Y12-Y14
// and Y3-Y5. Any other unit, and the triangle, is first copied to the
// frame, transposed: X, Y and Z in three arrays of cellCols+4 entries at 0,
// cellStride and 2*cellStride from the hardware SP, so that a row loads any
// four consecutive neighbours with three plain loads. Then the frame holds
// the end of units and the end of lpos.

// TOFRAME stores the TRANSPOSEd group at R10 in the frame's copy.
#define TOFRAME \
	VMOVUPD Y12, 0(R10);                 \
	VMOVUPD Y13, const_cellStride(R10);  \
	VMOVUPD Y14, 2*const_cellStride(R10)

// FROMFRAME loads four neighbours from the frame's copy at SI.
#define FROMFRAME \
	VMOVUPD 0(SI), Y12;                  \
	VMOVUPD const_cellStride(SI), Y13;   \
	VMOVUPD 2*const_cellStride(SI), Y14

// ROWSTEP stores the keys Y8 of the lanes the mask Y10 keeps and steps SI
// and Y8 to the next four neighbours.
#define ROWSTEP \
	VMOVMSKPD Y10, AX;                      \
	PACK(Y8);                               \
	STOREALL;                               \
	VPADDQ    leafTables_four(R14), Y8, Y8; \
	ADDQ      $32, SI

// ONEROW(keep) searches the group in Y12-Y14 against row a with the macro
// keep, stores the keys Y7 of the lanes Y8 selects that it keeps, and
// steps to row a+1.
#define ONEROW(keep) \
	VBROADCASTSD 0(R8), Y0;                      \
	VBROADCASTSD 8(R8), Y1;                      \
	VBROADCASTSD 16(R8), Y2;                     \
	keep;                                        \
	VPAND        Y8, Y10, Y10;                   \
	VMOVMSKPD    Y10, AX;                        \
	PACK(Y7);                                    \
	STOREALL;                                    \
	VPADDQ       leafTables_row(R14), Y7, Y7;    \
	ADDQ         $24, R8

// func searchCellAVX2(hits *[hitCap]uint64, n uint64, lpos, ppos, ghostPos []vec.V, units []cellUnit, shift *[32]vec.V, rc2 float64) uint64
TEXT ·searchCellAVX2(SB), $1648-136 // frame: 3*cellStride + 16
	MOVQ   hits+0(FP), DI
	MOVQ   n+8(FP), BX
	MOVQ   lpos_len+24(FP), AX
	TESTQ  AX, AX
	JZ     cellDone
	IMUL3Q $24, AX, AX
	ADDQ   lpos_base+16(FP), AX
	MOVQ   AX, lend-16(SP)
	MOVQ   units_base+88(FP), R9
	MOVQ   units_len+96(FP), CX
	TESTQ  CX, CX
	JZ     cellDone
	IMUL3Q $cellUnit__size, CX, CX
	ADDQ   R9, CX
	MOVQ   CX, end-8(SP)

	LEAQ         ·leafTab(SB), R14
	VBROADCASTSD rc2+120(FP), Y6
	VPXOR        Y15, Y15, Y15

	// Each unit: its code, its round term t = shift[code], the keys of its
	// row 0 and where its neighbours start: q, or for the triangle lpos[1:].
unit:
	MOVQ         cellUnit_key(R9), R13
	SHRQ         $const_hitCodeShift, R13
	ANDQ         $31, R13
	IMUL3Q       $24, R13, SI
	ADDQ         shift+112(FP), SI
	VBROADCASTSD 0(SI), Y3
	VBROADCASTSD 8(SI), Y4
	VBROADCASTSD 16(SI), Y5
	VPBROADCASTQ cellUnit_key(R9), Y7
	VPADDQ       leafTables_lane(R14), Y7, Y7
	MOVQ         lpos_base+16(FP), R8
	MOVBLZX      cellUnit_tri(R9), CX
	TESTL        CX, CX
	JZ           nbr
	MOVQ         lpos_len+24(FP), R11
	DECQ         R11
	JZ           next
	LEAQ         24(R8), SI
	JMP          copy

	// q starts at b of the key in ghostPos or ppos, as its ghost bit says.
nbr:
	MOVLQSX cellUnit_n(R9), R11
	TESTQ   R11, R11
	JZ      next
	MOVQ    cellUnit_key(R9), SI
	MOVQ    ppos_base+40(FP), R12
	BTQ     $const_hitIndexBits, SI
	CMOVQCS ghostPos_base+64(FP), R12
	ANDQ    $const_maxIndex, SI
	IMUL3Q  $24, SI, SI
	ADDQ    R12, SI
	CMPQ    R11, $4
	JLE     one
	CMPQ    R11, $8
	JG      copy
	TESTQ   R13, R13
	JNZ     copy

	// Five to eight neighbours, the round term +0: the second group, of
	// k = count-4, goes to Y3-Y5 (t is not used), its k lanes to Y8, the
	// first to Y12-Y14. Both load under masks, four or fewer lanes alike.
	LEAQ    96(SI), R10
	LEAQ    -5(R11), AX
	IMUL3Q  $shortTail__size, AX, AX
	LEAQ    leafTables_short(R14)(AX*1), R12
	SHORTLOAD(R10, R12)
	VMOVDQU shortTail_keep(R12), Y8
	VMOVAPD Y12, Y3
	VMOVAPD Y13, Y4
	VMOVAPD Y14, Y5
	LOADFOUR(SI)

twoRow:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	KEEP0
	VMOVMSKPD    Y10, AX
	PACK(Y7)
	STOREALL
	KEEP0Q(Y3, Y4, Y5)
	VPAND        Y8, Y10, Y10
	VMOVMSKPD    Y10, AX
	VPADDQ       leafTables_four(R14), Y7, Y9
	PACK(Y9)
	STOREALL
	VPADDQ       leafTables_row(R14), Y7, Y7
	ADDQ         $24, R8
	CMPQ         R8, lend-16(SP)
	JNE          twoRow
	JMP          next

	// Up to four neighbours: loaded once, under masks that stop at q's
	// end, with the count's lanes in Y8.
one:
	LEAQ    -1(R11), AX
	IMUL3Q  $shortTail__size, AX, AX
	LEAQ    leafTables_short(R14)(AX*1), R12
	SHORTLOAD(SI, R12)
	VMOVDQU shortTail_keep(R12), Y8
	TESTQ   R13, R13
	JZ      oneZero

oneRow:
	ONEROW(KEEP)
	CMPQ R8, lend-16(SP)
	JNE  oneRow
	JMP  next

oneZero:
	ONEROW(KEEP0)
	CMPQ R8, lend-16(SP)
	JNE  oneZero
	JMP  next

	// The copy: the full groups of the R11 neighbours at SI, then the
	// last R11 mod 4 under masks that stop at their end.
copy:
	LEAQ  0(SP), R10
	MOVQ  R11, CX
	SHRQ  $2, CX
	JZ    copyTail

copyGroup:
	LOADFOUR(SI)
	TOFRAME
	ADDQ $96, SI
	ADDQ $32, R10
	DECQ CX
	JNZ  copyGroup

copyTail:
	MOVQ   R11, AX
	ANDQ   $3, AX
	JZ     rows
	DECQ   AX
	IMUL3Q $shortTail__size, AX, AX
	LEAQ   leafTables_short(R14)(AX*1), R12
	SHORTLOAD(SI, R12)
	TOFRAME

	// Rows over the copy. A triangle's row a starts a neighbour further on,
	// with one neighbour fewer, and the triangle ends at its last
	// neighbour; its round term is code 0's, +0, and not subtracted. Any
	// other unit's rows all run over the whole copy, up to lpos's end, and
	// subtract t unless the code is 0.
rows:
	LEAQ    0(SP), R10
	MOVBLZX cellUnit_tri(R9), CX
	TESTL   CX, CX
	JNZ     triRow
	MOVQ    R11, R12
	SHRQ    $2, R12 // full groups per row
	MOVQ    R13, AX // the code
	MOVQ    R11, R13
	ANDQ    $3, R13
	SHLQ    $5, R13 // the last count mod 4, times 32: a row of first
	TESTQ   AX, AX
	JZ      zeroRow

nbrRow:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VMOVDQU      Y7, Y8
	MOVQ         R10, SI
	MOVQ         R12, CX

nbrGroup:
	FROMFRAME
	KEEP
	ROWSTEP
	DECQ CX
	JNZ  nbrGroup

	// The last count mod 4: four more loaded, the lanes past the count,
	// inside the copy's padding, dropped.
	TESTQ R13, R13
	JZ    nbrNext
	FROMFRAME
	KEEP
	VPAND leafTables_first(R14)(R13*1), Y10, Y10
	ROWSTEP

nbrNext:
	VPADDQ leafTables_row(R14), Y7, Y7
	ADDQ   $24, R8
	CMPQ   R8, lend-16(SP)
	JNE    nbrRow
	JMP    next

zeroRow:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VMOVDQU      Y7, Y8
	MOVQ         R10, SI
	MOVQ         R12, CX

zeroGroup:
	FROMFRAME
	KEEP0
	ROWSTEP
	DECQ CX
	JNZ  zeroGroup

	TESTQ R13, R13
	JZ    zeroNext
	FROMFRAME
	KEEP0
	VPAND leafTables_first(R14)(R13*1), Y10, Y10
	ROWSTEP

zeroNext:
	VPADDQ leafTables_row(R14), Y7, Y7
	ADDQ   $24, R8
	CMPQ   R8, lend-16(SP)
	JNE    zeroRow
	JMP    next

triRow:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VMOVDQU      Y7, Y8
	MOVQ         R10, SI
	MOVQ         R11, CX
	SHRQ         $2, CX
	JZ           triTail

triGroup:
	FROMFRAME
	KEEP0
	ROWSTEP
	DECQ CX
	JNZ  triGroup

triTail:
	MOVQ  R11, DX
	ANDQ  $3, DX
	JZ    triNext
	FROMFRAME
	KEEP0
	SHLQ  $5, DX
	VPAND leafTables_first(R14)(DX*1), Y10, Y10
	ROWSTEP

triNext:
	VPADDQ leafTables_tri(R14), Y7, Y7
	ADDQ   $24, R8
	ADDQ   $8, R10
	DECQ   R11
	JNZ    triRow

next:
	ADDQ $cellUnit__size, R9
	CMPQ R9, end-8(SP)
	JNE  unit

cellDone:
	VZEROUPPER
	MOVQ BX, ret+128(FP)
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
