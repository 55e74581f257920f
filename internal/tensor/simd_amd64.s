//go:build !race

#include "go_asm.h"
#include "textflag.h"

// AVX2 bodies of the row kernels in tensor.go. Every output element keeps
// the scalar kernels' operation sequence: one VMULPD and one VADDPD per
// accumulate (never a fused multiply-add, which rounds once instead of
// twice), applied in the same order. The Go wrappers check every slice
// length before calling in, and pass lengths that are multiples of 4.

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// MULADD accumulates one kept coefficient into the column block at byte
// offset boff: acc = acc + a·b, where a is broadcast in Y4 and R13 holds
// the byte offset of the coefficient's row of B relative to R10.
#define MULADD(boff, acc, tmp) \
	VMULPD boff(R10)(R13*1), Y4, tmp; \
	VADDPD tmp, acc, acc

// NEXTK takes the lowest set bit i of the kept-coefficient mask in AX:
// it broadcasts arow[i] into Y4 and leaves the byte offset i·stride of
// row i of B in R13. BSF leaves its destination unchanged when the source
// is zero, so the CPU reads R13 as an input; zeroing it first keeps each
// coefficient's BSFQ from waiting on the previous coefficient's IMULQ.
#define NEXTK \
	XORL R13, R13;                 \
	BSFQ AX, R13;                  \
	VBROADCASTSD (SI)(R13*8), Y4;  \
	IMULQ R8, R13

// DROPK clears the lowest set bit of AX, setting ZF when none remain.
#define DROPK \
	LEAQ -1(AX), R14; \
	ANDQ R14, AX

// func mulAddRowAVX2(drow, arow, bd []float64, p int)
//
// drow += arow·B over len(drow) columns (a multiple of 4), where row k of
// B starts at bd[k*p]. The coefficients are taken in chunks of up to 64.
// For each chunk a bit mask records which coefficients to keep: VCMPPD's
// not-equal-unordered predicate drops ±0 exactly as the scalar kernel's
// aik == 0 skip does, and keeps a NaN coefficient as that test does. Per
// chunk, each column block of 16, 8 or 4 is then loaded into registers,
// accumulated over the kept coefficients in ascending k (lowest mask bit
// first), and stored.
TEXT ·mulAddRowAVX2(SB), NOSPLIT, $0-80
	MOVQ arow_base+24(FP), SI
	MOVQ arow_len+32(FP), CX
	MOVQ bd_base+48(FP), DX
	MOVQ p+72(FP), R8
	SHLQ $3, R8 // row stride of B in bytes
	VXORPD Y15, Y15, Y15

chunk:
	TESTQ CX, CX
	JZ    done
	MOVQ  $64, R11
	CMPQ  CX, R11
	CMOVQLT CX, R11
	SUBQ  R11, CX

	// Build the mask from the chunk's end: first the 0-3 coefficients past
	// the last full group of 4, then the groups, shifting earlier
	// coefficients into lower bits.
	XORQ R12, R12
	MOVQ R11, R13

mask1:
	TESTQ $3, R13
	JZ    mask4
	DECQ  R13
	VMOVSD    (SI)(R13*8), X4
	VCMPSD    $4, X15, X4, X5
	VMOVMSKPD X5, AX
	ANDQ  $1, AX
	SHLQ  $1, R12
	ORQ   AX, R12
	JMP   mask1

mask4:
	TESTQ R13, R13
	JZ    columns
	SUBQ  $4, R13
	VCMPPD    $4, (SI)(R13*8), Y15, Y5
	VMOVMSKPD Y5, AX
	SHLQ  $4, R12
	ORQ   AX, R12
	JMP   mask4

columns:
	TESTQ R12, R12
	JZ    nextchunk
	MOVQ drow_base+0(FP), DI
	MOVQ drow_len+8(FP), BX
	MOVQ DX, R10

cols16:
	CMPQ BX, $16
	JL   cols8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ R12, AX

k16:
	NEXTK
	MULADD(0, Y0, Y6)
	MULADD(32, Y1, Y7)
	MULADD(64, Y2, Y8)
	MULADD(96, Y3, Y9)
	DROPK
	JNZ  k16
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R10
	SUBQ $16, BX
	JMP  cols16

cols8:
	CMPQ BX, $8
	JL   cols4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ R12, AX

k8:
	NEXTK
	MULADD(0, Y0, Y6)
	MULADD(32, Y1, Y7)
	DROPK
	JNZ  k8
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, R10
	SUBQ $8, BX

cols4:
	CMPQ BX, $4
	JL   nextchunk
	VMOVUPD 0(DI), Y0
	MOVQ R12, AX

k4:
	NEXTK
	MULADD(0, Y0, Y6)
	DROPK
	JNZ  k4
	VMOVUPD Y0, 0(DI)

nextchunk:
	ADDQ $512, SI // 64 coefficients
	MOVQ R8, AX
	SHLQ $6, AX
	ADDQ AX, DX   // 64 rows of B
	JMP  chunk

done:
	VZEROUPPER
	RET

// func gatherScaledAVX2(dst []float64, alpha float64, hd []float64, dim int, srcs []int32)
//
// dst = ((0 + alpha·row(srcs[0])) + alpha·row(srcs[1])) + … over len(dst)
// columns (a multiple of 4), where row s of the source starts at hd[s*dim].
TEXT ·gatherScaledAVX2(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	VBROADCASTSD alpha+24(FP), Y4
	MOVQ hd_base+32(FP), DX
	MOVQ dim+56(FP), R8
	SHLQ $3, R8 // row stride in bytes
	MOVQ srcs_base+64(FP), SI
	MOVQ srcs_len+72(FP), CX

gcols16:
	CMPQ BX, $16
	JL   gcols8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R11, R11

g16:
	CMPQ R11, CX
	JGE  g16store
	MOVLQSX (SI)(R11*4), R10
	IMULQ R8, R10
	ADDQ DX, R10
	VMULPD 0(R10), Y4, Y6
	VMULPD 32(R10), Y4, Y7
	VMULPD 64(R10), Y4, Y8
	VMULPD 96(R10), Y4, Y9
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
	INCQ R11
	JMP  g16

g16store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, BX
	JMP  gcols16

gcols8:
	CMPQ BX, $8
	JL   gcols4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ R11, R11

g8:
	CMPQ R11, CX
	JGE  g8store
	MOVLQSX (SI)(R11*4), R10
	IMULQ R8, R10
	ADDQ DX, R10
	VMULPD 0(R10), Y4, Y6
	VMULPD 32(R10), Y4, Y7
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	INCQ R11
	JMP  g8

g8store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, BX

gcols4:
	CMPQ BX, $4
	JL   gdone
	VXORPD Y0, Y0, Y0
	XORQ R11, R11

g4:
	CMPQ R11, CX
	JGE  g4store
	MOVLQSX (SI)(R11*4), R10
	IMULQ R8, R10
	ADDQ DX, R10
	VMULPD 0(R10), Y4, Y6
	VADDPD Y6, Y0, Y0
	INCQ R11
	JMP  g4

g4store:
	VMOVUPD Y0, 0(DI)

gdone:
	VZEROUPPER
	RET

// func axpyAVX2(alpha float64, x, y []float64)
//
// y += alpha·x over len(x) elements (a multiple of 4; len(y) is equal).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y4
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI

a16:
	CMPQ CX, $16
	JL   a4
	VMULPD 0(SI), Y4, Y0
	VMULPD 32(SI), Y4, Y1
	VMULPD 64(SI), Y4, Y2
	VMULPD 96(SI), Y4, Y3
	VADDPD 0(DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD 64(DI), Y2, Y2
	VADDPD 96(DI), Y3, Y3
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  a16

a4:
	CMPQ CX, $4
	JL   adone
	VMULPD 0(SI), Y4, Y0
	VADDPD 0(DI), Y0, Y0
	VMOVUPD Y0, 0(DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  a4

adone:
	VZEROUPPER
	RET

// func mulATBRowAVX2(dst, a, b []float64, c int)
//
// The rank-1 update dst += aᵀ·b over the first len(b) columns (a multiple
// of 4) of the rows of dst, where row k starts at dst[k*c]. It builds the
// kept-coefficient mask of mulAddRowAVX2 over chunks of up to 64
// coefficients (±0 dropped, NaN kept, as the scalar av == 0 skip does),
// keeps each 16-, 8- or 4-column block of b in registers, and applies to
// row k of every kept coefficient the accumulate axpyAVX2 applies:
// a[k]·b, then plus the destination.
TEXT ·mulATBRowAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ c+72(FP), R8
	SHLQ $3, R8 // row stride of dst in bytes
	VXORPD Y15, Y15, Y15

rchunk:
	TESTQ CX, CX
	JZ    rdone
	MOVQ  $64, R11
	CMPQ  CX, R11
	CMOVQLT CX, R11
	SUBQ  R11, CX
	XORQ  R12, R12
	MOVQ  R11, R13

rmask1:
	TESTQ $3, R13
	JZ    rmask4
	DECQ  R13
	VMOVSD    (SI)(R13*8), X4
	VCMPSD    $4, X15, X4, X5
	VMOVMSKPD X5, AX
	ANDQ  $1, AX
	SHLQ  $1, R12
	ORQ   AX, R12
	JMP   rmask1

rmask4:
	TESTQ R13, R13
	JZ    rcolumns
	SUBQ  $4, R13
	VCMPPD    $4, (SI)(R13*8), Y15, Y5
	VMOVMSKPD Y5, AX
	SHLQ  $4, R12
	ORQ   AX, R12
	JMP   rmask4

rcolumns:
	TESTQ R12, R12
	JZ    rnextchunk
	MOVQ b_base+48(FP), DI
	MOVQ b_len+56(FP), BX
	MOVQ DX, R10

rcols16:
	CMPQ BX, $16
	JL   rcols8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ R12, AX

r16:
	NEXTK
	VMULPD Y0, Y4, Y6
	VMULPD Y1, Y4, Y7
	VMULPD Y2, Y4, Y8
	VMULPD Y3, Y4, Y9
	VADDPD 0(R10)(R13*1), Y6, Y6
	VADDPD 32(R10)(R13*1), Y7, Y7
	VADDPD 64(R10)(R13*1), Y8, Y8
	VADDPD 96(R10)(R13*1), Y9, Y9
	VMOVUPD Y6, 0(R10)(R13*1)
	VMOVUPD Y7, 32(R10)(R13*1)
	VMOVUPD Y8, 64(R10)(R13*1)
	VMOVUPD Y9, 96(R10)(R13*1)
	DROPK
	JNZ  r16
	ADDQ $128, DI
	ADDQ $128, R10
	SUBQ $16, BX
	JMP  rcols16

rcols8:
	CMPQ BX, $8
	JL   rcols4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ R12, AX

r8:
	NEXTK
	VMULPD Y0, Y4, Y6
	VMULPD Y1, Y4, Y7
	VADDPD 0(R10)(R13*1), Y6, Y6
	VADDPD 32(R10)(R13*1), Y7, Y7
	VMOVUPD Y6, 0(R10)(R13*1)
	VMOVUPD Y7, 32(R10)(R13*1)
	DROPK
	JNZ  r8
	ADDQ $64, DI
	ADDQ $64, R10
	SUBQ $8, BX

rcols4:
	CMPQ BX, $4
	JL   rnextchunk
	VMOVUPD 0(DI), Y0
	MOVQ R12, AX

r4:
	NEXTK
	VMULPD Y0, Y4, Y6
	VADDPD 0(R10)(R13*1), Y6, Y6
	VMOVUPD Y6, 0(R10)(R13*1)
	DROPK
	JNZ  r4

rnextchunk:
	ADDQ $512, SI // 64 coefficients
	MOVQ R8, AX
	SHLQ $6, AX
	ADDQ AX, DX   // 64 rows of dst
	JMP  rchunk

rdone:
	VZEROUPPER
	RET

// TDOT accumulates one coefficient into the column block at byte offset
// boff: acc = acc + a·bᵀ, where a is broadcast in Y4 and R10 points at
// the coefficient's row of bᵀ.
#define TDOT(boff, acc, tmp) \
	VMULPD boff(R10), Y4, tmp; \
	VADDPD tmp, acc, acc

// TSTORE finishes one column block: dst = dst + acc.
#define TSTORE(doff, acc) \
	VMOVUPD doff(DI), Y5;   \
	VADDPD  acc, Y5, Y5;    \
	VMOVUPD Y5, doff(DI)

// func mulABTRowAVX2(drow, arow, bt []float64, p int)
//
// drow[j] += (0 + arow[0]·bt[j]) + arow[1]·bt[p+j] + … over len(drow)
// columns (a multiple of 4), where row k of bᵀ starts at bt[k*p]. Each
// lane is one output column's dot-product chain: it starts at +0, takes
// every coefficient in ascending k (none is skipped, as the scalar loop
// skips none) and is added to the destination last, as the scalar loop's
// drow[j] += s does.
TEXT ·mulABTRowAVX2(SB), NOSPLIT, $0-80
	MOVQ drow_base+0(FP), DI
	MOVQ drow_len+8(FP), BX
	MOVQ arow_base+24(FP), SI
	MOVQ arow_len+32(FP), CX
	MOVQ bt_base+48(FP), DX
	MOVQ p+72(FP), R8
	SHLQ $3, R8 // row stride of bᵀ in bytes

tcols16:
	CMPQ BX, $16
	JL   tcols8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ DX, R10
	XORQ R11, R11

t16:
	CMPQ R11, CX
	JGE  t16store
	VBROADCASTSD (SI)(R11*8), Y4
	TDOT(0, Y0, Y6)
	TDOT(32, Y1, Y7)
	TDOT(64, Y2, Y8)
	TDOT(96, Y3, Y9)
	ADDQ R8, R10
	INCQ R11
	JMP  t16

t16store:
	TSTORE(0, Y0)
	TSTORE(32, Y1)
	TSTORE(64, Y2)
	TSTORE(96, Y3)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, BX
	JMP  tcols16

tcols8:
	CMPQ BX, $8
	JL   tcols4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ DX, R10
	XORQ R11, R11

t8:
	CMPQ R11, CX
	JGE  t8store
	VBROADCASTSD (SI)(R11*8), Y4
	TDOT(0, Y0, Y6)
	TDOT(32, Y1, Y7)
	ADDQ R8, R10
	INCQ R11
	JMP  t8

t8store:
	TSTORE(0, Y0)
	TSTORE(32, Y1)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, BX

tcols4:
	CMPQ BX, $4
	JL   tdone
	VXORPD Y0, Y0, Y0
	MOVQ DX, R10
	XORQ R11, R11

t4:
	CMPQ R11, CX
	JGE  t4store
	VBROADCASTSD (SI)(R11*8), Y4
	TDOT(0, Y0, Y6)
	ADDQ R8, R10
	INCQ R11
	JMP  t4

t4store:
	TSTORE(0, Y0)

tdone:
	VZEROUPPER
	RET

// COLK adds one coefficient column to the four row chains in Y0: coef
// holds a[i+j][k] in lane j and boff(DX)(AX*1) is b[k]. A lane whose
// coefficient is ±0 (VCMPPD's equal-ordered predicate, the scalar aik == 0
// test) adds −0 instead of the product. −0 is the identity of the add for
// every accumulator but a signalling NaN, which an add quiets: a later
// kept coefficient's add quiets it in the scalar chain too, and a lane
// with none takes its destination back at the store. Y13 keeps, per lane,
// whether every coefficient so far was ±0.
#define COLK(coef, boff) \
	VBROADCASTSD boff(DX)(AX*1), Y9; \
	VCMPPD    $0, Y15, coef, Y10;    \
	VMULPD    Y9, coef, Y11;         \
	VBLENDVPD Y10, Y14, Y11, Y11;    \
	VADDPD    Y11, Y0, Y0;           \
	VANDPD    Y10, Y13, Y13

// func mulAddColAVX2(dst, a, b []float64)
//
// dst[i] += a_i·b for the len(dst) rows (a multiple of 4) of a, whose rows
// are K = len(b) long: the one-column MulAddInto of the prediction heads.
// Each group of 4 rows keeps lane j on row i+j's chain, from its
// destination value through every coefficient in ascending k, the
// accumulator the first operand of every add. The coefficients are read 4
// rows by 4 columns at a time and transposed, so that each register holds
// one column; the K mod 4 columns past them are read one row at a time. A
// lane whose coefficients were all ±0 stores its destination value back,
// as the scalar skip leaves it, a signalling NaN included.
TEXT ·mulAddColAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ b_len+56(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8 // row stride of a in bytes
	VXORPD Y15, Y15, Y15
	MOVQ $1, AX
	SHLQ $63, AX
	VMOVQ AX, X14
	VBROADCASTSD X14, Y14 // −0 in every lane

cgroup:
	CMPQ BX, $4
	JL   cdone
	VMOVUPD (DI), Y0
	VCMPPD $0, Y15, Y15, Y13 // all lanes: no coefficient kept yet
	MOVQ SI, R9
	LEAQ (SI)(R8*1), R10
	LEAQ (SI)(R8*2), R11
	LEAQ (R10)(R8*2), R12
	XORQ AX, AX // byte offset of column k
	MOVQ CX, R13

ck4:
	CMPQ R13, $4
	JL   ck1
	VMOVUPD (R9)(AX*1), Y1
	VMOVUPD (R10)(AX*1), Y2
	VMOVUPD (R11)(AX*1), Y3
	VMOVUPD (R12)(AX*1), Y4
	VUNPCKLPD Y2, Y1, Y5 // rows 0,1 of columns k, k+2
	VUNPCKHPD Y2, Y1, Y6 // rows 0,1 of columns k+1, k+3
	VUNPCKLPD Y4, Y3, Y7 // rows 2,3 of columns k, k+2
	VUNPCKHPD Y4, Y3, Y8 // rows 2,3 of columns k+1, k+3
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x20, Y8, Y6, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VPERM2F128 $0x31, Y8, Y6, Y4
	COLK(Y1, 0)
	COLK(Y2, 8)
	COLK(Y3, 16)
	COLK(Y4, 24)
	ADDQ $32, AX
	SUBQ $4, R13
	JMP  ck4

ck1:
	TESTQ R13, R13
	JZ    cstore
	VMOVSD  (R9)(AX*1), X1
	VMOVHPD (R10)(AX*1), X1, X1
	VMOVSD  (R11)(AX*1), X2
	VMOVHPD (R12)(AX*1), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	COLK(Y1, 0)
	ADDQ $8, AX
	DECQ R13
	JMP  ck1

cstore:
	VBLENDVPD Y13, (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	LEAQ (SI)(R8*4), SI
	SUBQ $4, BX
	JMP  cgroup

cdone:
	VZEROUPPER
	RET

// RELU replaces every lane of acc with max(acc, 0) as Go's max lowers it on
// amd64: negate, take MINPD against −0 and then against the negated value,
// OR the two, negate. Y14 holds −0 in every lane: the sign mask, and the
// negated 0. The sequence gives +0 for −0 and for every negative lane,
// clears the sign of a NaN and leaves its payload, quiet or signalling.
#define RELU(acc, t1, t2) \
	VXORPD Y14, acc, acc; \
	VMINPD Y14, acc, t1;  \
	VMINPD acc, t1, t2;   \
	VORPD  t1, t2, acc;   \
	VXORPD Y14, acc, acc

// GMASK ORs the kept-coefficient bits in AX of the gathered block that
// starts BX columns before the end of the row, whose length is in CX, into
// its mask word at DI: the block's first column is CX − BX, its word
// (CX − BX)/64, and SHLQ takes its shift count mod 64. Blocks start at
// multiples of their width, so none straddles two words.
#define GMASK \
	SUBQ BX, CX; \
	SHLQ CX, AX; \
	SHRQ $6, CX; \
	ORQ  AX, (DI)(CX*8)

// func gcnLayerAVX2(out, h, wself, b []float64, wrel []*Matrix, off, src []int32, rels []uint64, norm [][]float64, n, numRel, in, p int, agg []float64)
//
// The layer GCNLayerInto describes over the first len(b) columns (a
// multiple of 4) of the n rows of out, whose row stride is p, as are the
// weights'. For each destination d it walks the set bits of rels[d],
// masked to the first len(wrel) relations, lowest first: ascending r, the
// relations with sources at d. It first gathers each such relation r into
// row r of agg, with gatherScaledAVX2's chain and α = norm[r][d], and
// records the row's kept-coefficient mask words (bit k of word c set when
// coefficient 64c+k is neither +0 nor −0) from the registers it stores,
// in agg past the len(wrel) rows. Then, per column block of 16, 8 or 4, it
// keeps the block of out_d in Y0-Y3 from +0 through the self term
// h_d·wself, the bias, each relation's agg_r·W_r in ascending r, and the
// ReLU, and stores it once. Each product term is mulAddRowAVX2's: masks
// over chunks of up to 64 coefficients (built from h_d for the self term,
// loaded for a relation), one VMULPD and one VADDPD per kept coefficient
// with the accumulator as the first operand of the add.
//
// Locals: the destination d, the addresses of row d of h and of d's run of
// off, the byte offset of the column block, d's relation bits, the address
// of agg's mask words and their bytes per relation, the mask of the first
// len(wrel) relations, and the address of a relation term's next mask
// word.
TEXT ·gcnLayerAVX2(SB), NOSPLIT, $72-272
	MOVQ p+240(FP), R8
	SHLQ $3, R8 // row stride of the weights and of out in bytes
	VXORPD Y15, Y15, Y15
	MOVQ $1, AX
	SHLQ $63, AX
	VMOVQ AX, X14
	VBROADCASTSD X14, Y14 // −0 in every lane
	MOVQ wrel_len+104(FP), CX
	MOVQ $-1, AX
	CMPQ CX, $64
	JGE  relmask
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX

relmask:
	MOVQ AX, relmask-64(SP)
	MOVQ in+232(FP), AX
	ADDQ $63, AX
	SHRQ $6, AX
	SHLQ $3, AX
	MOVQ AX, mstride-56(SP)
	MOVQ in+232(FP), AX
	IMULQ CX, AX
	SHLQ $3, AX
	ADDQ agg_base+248(FP), AX
	MOVQ AX, masks-48(SP)
	MOVQ $0, d-8(SP)

node:
	MOVQ d-8(SP), AX
	CMPQ AX, n+216(FP)
	JGE  ldone
	MOVQ in+232(FP), BX
	IMULQ AX, BX
	SHLQ $3, BX
	ADDQ h_base+24(FP), BX
	MOVQ BX, hrow-16(SP)
	MOVQ numRel+224(FP), BX
	IMULQ AX, BX
	SHLQ $2, BX
	ADDQ off_base+120(FP), BX
	MOVQ BX, offrow-24(SP)
	MOVQ rels_base+168(FP), BX
	MOVQ (BX)(AX*8), R14
	ANDQ relmask-64(SP), R14
	MOVQ R14, bits-40(SP)

grel:
	// Gather relation R9, the lowest bit left in R14, into row R12 of agg
	// and its mask words at DI. R9 then counts the sources at SI.
	TESTQ R14, R14
	JZ    columns
	BSFQ  R14, R9
	LEAQ  -1(R14), AX
	ANDQ  AX, R14
	MOVQ  offrow-24(SP), AX
	MOVLQSX (AX)(R9*4), R11
	MOVLQSX 4(AX)(R9*4), CX
	SUBQ  R11, CX // source count
	LEAQ  (R9)(R9*2), AX
	MOVQ  norm_base+192(FP), R10
	MOVQ  (R10)(AX*8), R10 // norm[r]
	MOVQ  d-8(SP), AX
	VBROADCASTSD (R10)(AX*8), Y4 // α = norm[r][d]
	MOVQ  mstride-56(SP), DI
	IMULQ R9, DI
	ADDQ  masks-48(SP), DI
	MOVQ  in+232(FP), R12
	IMULQ R9, R12
	SHLQ  $3, R12
	ADDQ  agg_base+248(FP), R12
	MOVQ  CX, R9
	MOVQ  src_base+144(FP), SI
	LEAQ  (SI)(R11*4), SI
	MOVQ  h_base+24(FP), DX
	MOVQ  in+232(FP), BX // columns left
	MOVQ  BX, R13
	SHLQ  $3, R13        // row stride of h in bytes
	MOVQ  mstride-56(SP), AX

gzero:
	TESTQ AX, AX
	JZ    gc16
	SUBQ  $8, AX
	MOVQ  $0, (DI)(AX*1)
	JMP   gzero

gc16:
	CMPQ BX, $16
	JL   gc8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R11, R11

gl16:
	CMPQ R11, R9
	JGE  gs16
	MOVLQSX (SI)(R11*4), R10
	IMULQ R13, R10
	ADDQ DX, R10
	VMULPD 0(R10), Y4, Y6
	VMULPD 32(R10), Y4, Y7
	VMULPD 64(R10), Y4, Y8
	VMULPD 96(R10), Y4, Y9
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
	INCQ R11
	JMP  gl16

gs16:
	VMOVUPD Y0, 0(R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	VCMPPD    $4, Y15, Y0, Y6
	VMOVMSKPD Y6, AX
	VCMPPD    $4, Y15, Y1, Y7
	VMOVMSKPD Y7, R10
	SHLQ $4, R10
	ORQ  R10, AX
	VCMPPD    $4, Y15, Y2, Y6
	VMOVMSKPD Y6, R10
	SHLQ $8, R10
	ORQ  R10, AX
	VCMPPD    $4, Y15, Y3, Y7
	VMOVMSKPD Y7, R10
	SHLQ $12, R10
	ORQ  R10, AX
	MOVQ in+232(FP), CX
	GMASK
	ADDQ $128, R12
	ADDQ $128, DX
	SUBQ $16, BX
	JMP  gc16

gc8:
	CMPQ BX, $8
	JL   gc4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ R11, R11

gl8:
	CMPQ R11, R9
	JGE  gs8
	MOVLQSX (SI)(R11*4), R10
	IMULQ R13, R10
	ADDQ DX, R10
	VMULPD 0(R10), Y4, Y6
	VMULPD 32(R10), Y4, Y7
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	INCQ R11
	JMP  gl8

gs8:
	VMOVUPD Y0, 0(R12)
	VMOVUPD Y1, 32(R12)
	VCMPPD    $4, Y15, Y0, Y6
	VMOVMSKPD Y6, AX
	VCMPPD    $4, Y15, Y1, Y7
	VMOVMSKPD Y7, R10
	SHLQ $4, R10
	ORQ  R10, AX
	MOVQ in+232(FP), CX
	GMASK
	ADDQ $64, R12
	ADDQ $64, DX
	SUBQ $8, BX

gc4:
	CMPQ BX, $4
	JL   gc1
	VXORPD Y0, Y0, Y0
	XORQ R11, R11

gl4:
	CMPQ R11, R9
	JGE  gs4
	MOVLQSX (SI)(R11*4), R10
	IMULQ R13, R10
	ADDQ DX, R10
	VMULPD 0(R10), Y4, Y6
	VADDPD Y6, Y0, Y0
	INCQ R11
	JMP  gl4

gs4:
	VMOVUPD Y0, 0(R12)
	VCMPPD    $4, Y15, Y0, Y6
	VMOVMSKPD Y6, AX
	MOVQ in+232(FP), CX
	GMASK
	ADDQ $32, R12
	ADDQ $32, DX
	SUBQ $4, BX

gc1:
	// The 1-3 columns past the last block, one scalar chain each.
	TESTQ BX, BX
	JZ    grel
	VXORPD X0, X0, X0
	XORQ R11, R11

gl1:
	CMPQ R11, R9
	JGE  gs1
	MOVLQSX (SI)(R11*4), R10
	IMULQ R13, R10
	ADDQ DX, R10
	VMULSD (R10), X4, X6
	VADDSD X6, X0, X0
	INCQ R11
	JMP  gl1

gs1:
	VMOVSD X0, (R12)
	VCMPSD    $4, X15, X0, X6
	VMOVMSKPD X6, AX
	ANDQ $1, AX
	MOVQ in+232(FP), CX
	GMASK
	ADDQ $8, R12
	ADDQ $8, DX
	DECQ BX
	JMP  gc1

columns:
	MOVQ $0, col-32(SP)

block:
	// BX = the block's width: 16, 8 or 4 of the columns left.
	MOVQ col-32(SP), AX
	SHRQ $3, AX
	MOVQ b_len+80(FP), BX
	SUBQ AX, BX
	JZ   nodedone
	CMPQ BX, $16
	JL   bw8
	MOVQ $16, BX
	JMP  bwset

bw8:
	CMPQ BX, $8
	JL   bw4
	MOVQ $8, BX
	JMP  bwset

bw4:
	MOVQ $4, BX

bwset:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ $-1, R9 // term -1 is the self term, r ≥ 0 relation r
	MOVQ hrow-16(SP), SI
	MOVQ wself_base+48(FP), DX
	ADDQ col-32(SP), DX
	MOVQ bits-40(SP), DI // the relation terms left
	JMP  term

termdone:
	TESTQ R9, R9
	JNS   rnext
	MOVQ  b_base+72(FP), AX
	ADDQ  col-32(SP), AX
	CMPQ  BX, $8
	JL    bias4
	JEQ   bias8
	VADDPD 64(AX), Y2, Y2
	VADDPD 96(AX), Y3, Y3

bias8:
	VADDPD 32(AX), Y1, Y1

bias4:
	VADDPD 0(AX), Y0, Y0

rnext:
	TESTQ DI, DI
	JZ    store
	BSFQ  DI, R9
	LEAQ  -1(DI), AX
	ANDQ  AX, DI
	MOVQ  in+232(FP), SI
	IMULQ R9, SI
	SHLQ  $3, SI
	ADDQ  agg_base+248(FP), SI
	MOVQ  mstride-56(SP), AX
	IMULQ R9, AX
	ADDQ  masks-48(SP), AX
	MOVQ  AX, mnext-72(SP)
	MOVQ  wrel_base+96(FP), DX
	MOVQ  (DX)(R9*8), DX
	MOVQ  Matrix_Data(DX), DX
	ADDQ  col-32(SP), DX
	JMP   term

store:
	MOVQ d-8(SP), DI
	IMULQ R8, DI
	ADDQ out_base+0(FP), DI
	ADDQ col-32(SP), DI
	CMPQ BX, $8
	JL   st4
	JEQ  st8
	RELU(Y2, Y6, Y7)
	RELU(Y3, Y8, Y9)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)

st8:
	RELU(Y1, Y6, Y7)
	VMOVUPD Y1, 32(DI)

st4:
	RELU(Y0, Y6, Y7)
	VMOVUPD Y0, 0(DI)
	SHLQ $3, BX
	ADDQ BX, col-32(SP)
	JMP  block

nodedone:
	INCQ d-8(SP)
	JMP  node

term:
	// Y0-Y3 += row SI (in coefficients) · the rows at DX, BX columns wide.
	MOVQ in+232(FP), CX

tchunk:
	TESTQ CX, CX
	JZ    termdone
	MOVQ  $64, R11
	CMPQ  CX, R11
	CMOVQLT CX, R11
	SUBQ  R11, CX
	TESTQ R9, R9
	JS    tself
	MOVQ  mnext-72(SP), AX
	MOVQ  (AX), R12
	ADDQ  $8, mnext-72(SP)
	JMP   tkeep

tself:
	XORQ  R12, R12
	MOVQ  R11, R13

tmask1:
	TESTQ $3, R13
	JZ    tmask4
	DECQ  R13
	VMOVSD    (SI)(R13*8), X4
	VCMPSD    $4, X15, X4, X5
	VMOVMSKPD X5, AX
	ANDQ  $1, AX
	SHLQ  $1, R12
	ORQ   AX, R12
	JMP   tmask1

tmask4:
	TESTQ R13, R13
	JZ    tkeep
	SUBQ  $4, R13
	VCMPPD    $4, (SI)(R13*8), Y15, Y5
	VMOVMSKPD Y5, AX
	SHLQ  $4, R12
	ORQ   AX, R12
	JMP   tmask4

tkeep:
	TESTQ R12, R12
	JZ    tnextchunk
	MOVQ  DX, R10
	MOVQ  R12, AX
	CMPQ  BX, $8
	JL    tk4
	JEQ   tk8

tk16:
	NEXTK
	MULADD(0, Y0, Y6)
	MULADD(32, Y1, Y7)
	MULADD(64, Y2, Y8)
	MULADD(96, Y3, Y9)
	DROPK
	JNZ  tk16
	JMP  tnextchunk

tk8:
	NEXTK
	MULADD(0, Y0, Y6)
	MULADD(32, Y1, Y7)
	DROPK
	JNZ  tk8
	JMP  tnextchunk

tk4:
	NEXTK
	MULADD(0, Y0, Y6)
	DROPK
	JNZ  tk4

tnextchunk:
	ADDQ $512, SI // 64 coefficients
	MOVQ R8, AX
	SHLQ $6, AX
	ADDQ AX, DX   // 64 rows of the weights
	JMP  tchunk

ldone:
	VZEROUPPER
	RET
