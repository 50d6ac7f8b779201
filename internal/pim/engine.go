package pim

import (
	"encoding/binary"
	"math/bits"

	"bulkpim/internal/mem"
)

// ArrayImage is the functional state of one crossbar array, loaded from
// backing memory, operated on with bulk-bitwise micro-operations, and
// stored back. All column operations act on every row in parallel, exactly
// like the hardware's row-parallel column logic (Fig. 2).
type ArrayImage struct {
	g     Geometry
	base  mem.Addr
	array int
	rows  []byte // Rows * LineSize, row-major
	dirty []bool // per row
	// allDirty is set by column writes, which touch every row; Store then
	// writes the whole array back in one contiguous pass.
	allDirty bool

	planes [][]uint64 // reusable column bit-plane scratch (colview.go)
	// planeRefs is MulFields' reusable operand/accumulator pointer table.
	planeRefs [][]uint64
}

// LoadArray materializes array `array` of the scope at base from b.
func LoadArray(b *mem.Backing, base mem.Addr, g Geometry, array int) *ArrayImage {
	img := NewArrayImage(g, base)
	img.Reload(b, array)
	return img
}

// NewArrayImage returns an all-zero image of array 0 of the scope at base,
// ready to Reload any of the scope's arrays.
func NewArrayImage(g Geometry, base mem.Addr) *ArrayImage {
	return &ArrayImage{
		g: g, base: base,
		rows:  make([]byte, g.Rows*mem.LineSize),
		dirty: make([]bool, g.Rows),
	}
}

// Reload replaces the image with array `array` of the same scope, reusing
// the row, dirty and plane buffers: a program that walks every array of a
// scope loads them all through one image. Unstored changes are dropped.
func (a *ArrayImage) Reload(b *mem.Backing, array int) {
	a.array = array
	clear(a.dirty)
	a.allDirty = false
	b.Read(a.g.RowAddr(a.base, array, 0), a.rows)
}

// Store writes modified rows back to b, tagging each written line with
// writer for happens-before tracking.
func (a *ArrayImage) Store(b *mem.Backing, writer uint64) {
	if a.allDirty {
		addr := a.g.RowAddr(a.base, a.array, 0)
		b.Write(addr, a.rows)
		b.SetWriterRange(addr, uint64(len(a.rows)), writer)
		return
	}
	for r := 0; r < a.g.Rows; r++ {
		if !a.dirty[r] {
			continue
		}
		addr := a.g.RowAddr(a.base, a.array, r)
		b.Write(addr, a.rows[r*mem.LineSize:(r+1)*mem.LineSize])
		b.SetWriter(mem.LineOf(addr), writer)
	}
}

// Bit returns cell (row, col).
func (a *ArrayImage) Bit(row, col int) bool {
	byteIdx := row*mem.LineSize + col/8
	return a.rows[byteIdx]&(1<<uint(col%8)) != 0
}

// SetBit writes cell (row, col).
func (a *ArrayImage) SetBit(row, col int, v bool) {
	byteIdx := row*mem.LineSize + col/8
	bit := byte(1) << uint(col%8)
	if v {
		a.rows[byteIdx] |= bit
	} else {
		a.rows[byteIdx] &^= bit
	}
	a.dirty[row] = true
}

// Row returns the 64-byte image of one row.
func (a *ArrayImage) Row(row int) []byte {
	return a.rows[row*mem.LineSize : (row+1)*mem.LineSize]
}

// SetRow overwrites one row.
func (a *ArrayImage) SetRow(row int, data []byte) {
	copy(a.Row(row), data[:mem.LineSize])
	a.dirty[row] = true
}

// BoolOp is a two-input bitwise logic function (the array's basic
// operation: NOR in MAGIC, AND/OR in Ambit, ...).
type BoolOp func(x, y bool) bool

// Basic operations offered by the technology. Complex logic is composed
// from these.
var (
	OpNOR  BoolOp = func(x, y bool) bool { return !(x || y) }
	OpAND  BoolOp = func(x, y bool) bool { return x && y }
	OpOR   BoolOp = func(x, y bool) bool { return x || y }
	OpXOR  BoolOp = func(x, y bool) bool { return x != y }
	OpNAND BoolOp = func(x, y bool) bool { return !(x && y) }
)

// ColOp computes dst = op(src1, src2) for every row of the array in
// parallel: one hardware micro-operation. Rows are processed as packed
// 64-row words through the op's truth table, so any BoolOp — named or
// custom — runs word-parallel.
func (a *ArrayImage) ColOp(op BoolOp, dst, src1, src2 int) {
	x, y, d := a.plane(0), a.plane(1), a.plane(2)
	a.LoadPlane(src1, x)
	a.LoadPlane(src2, y)
	t00, t01, t10, t11 := truthMasks(op)
	for w := range d {
		d[w] = wordOp(x[w], y[w], t00, t01, t10, t11)
	}
	a.StorePlane(dst, d)
}

// ColNot computes dst = NOT src for every row (NOR with itself).
func (a *ArrayImage) ColNot(dst, src int) {
	a.ColOp(OpNOR, dst, src, src)
}

// ColSet initializes a column to a constant in every row (a bulk write
// driven by the periphery).
func (a *ArrayImage) ColSet(dst int, v bool) {
	d := a.plane(0)
	var word uint64
	if v {
		word = ^uint64(0)
	}
	for w := range d {
		d[w] = word
	}
	a.StorePlane(dst, d)
}

// ColCopy copies a column (two NORs in MAGIC; we count it as issued
// micro-ops at the program level).
func (a *ArrayImage) ColCopy(dst, src int) {
	d := a.plane(0)
	a.LoadPlane(src, d)
	a.StorePlane(dst, d)
}

// RowOp computes row dst = op(src1, src2) bitwise across all columns: the
// row-direction counterpart used to combine result rows. Rows are already
// bit-packed bytes, so this runs 64 columns per word directly on the row
// storage.
func (a *ArrayImage) RowOp(op BoolOp, dst, src1, src2 int) {
	r1, r2, rd := a.Row(src1), a.Row(src2), a.Row(dst)
	t00, t01, t10, t11 := truthMasks(op)
	for o := 0; o+8 <= mem.LineSize; o += 8 {
		x := binary.LittleEndian.Uint64(r1[o:])
		y := binary.LittleEndian.Uint64(r2[o:])
		binary.LittleEndian.PutUint64(rd[o:], wordOp(x, y, t00, t01, t10, t11))
	}
	a.dirty[dst] = true
}

// TransposeColToRow copies column src of rows [0, n) into row dst, bit i of
// the row taking the value of cell (i, src). This is the result-gather
// step: after a filter leaves one match bit per record (row) in a result
// column, the transpose packs those bits into a single row — one cache
// line — so the host reads one line per array instead of one per record.
// The packed plane of the source column IS the destination row's bit
// pattern, so the move is a gather plus word-wide row stores.
func (a *ArrayImage) TransposeColToRow(dst, src, n int) {
	if n > a.g.Cols {
		panic("pim: transpose wider than row")
	}
	p := a.plane(0)
	a.LoadPlane(src, p)
	a.SetRowBits(dst, p, n)
}

// CmpConst computes, for every row in parallel, the comparison of the
// unsigned big-endian field stored in columns [fieldBase, fieldBase+width)
// against constant k, leaving the boolean result in column dstCol. The
// temporaries tmpGT and tmpEQ must be two scratch columns.
//
// This is the standard bit-serial magnitude comparator: walk the bits from
// MSB to LSB keeping running "greater" and "equal" flags. With the constant
// known at compile time each bit step specializes to about two column ops.
// The returned micro-op count is what the timing model charges.
// The running "greater" and "equal" flags stay in packed registers for the
// whole bit walk — only the compared field's byte columns are gathered, and
// the flag columns are scattered once at the end — so the comparator costs
// one gather per field byte plus two word ops per bit per 64 rows. Charged
// micro-ops are unchanged: the timing model still sees the bit-serial op
// sequence.
func (a *ArrayImage) CmpConst(pred Predicate, fieldBase, width int, k uint64, dstCol, tmpGT, tmpEQ int) int {
	micro := 0
	gt, eq := a.plane(0), a.plane(1)
	for w := range gt {
		gt[w] = 0
		eq[w] = ^uint64(0)
	}
	micro += 2
	// Gather the field a byte column at a time: one row pass yields the
	// eight bit planes of a byte, of which the field uses those in range.
	var p8 [8][]uint64
	for j := range p8 {
		p8[j] = a.plane(4 + j)
	}
	for b := 0; b < width; { // b is the MSB-first bit position
		col := fieldBase + b
		a.LoadPlanes8(col>>3, &p8)
		for j := col & 7; j < 8 && b < width; j++ {
			micro += cmpStep(gt, eq, p8[j], k&(1<<uint(width-1-b)) != 0)
			b++
		}
	}
	a.StorePlane(tmpGT, gt)
	a.StorePlane(tmpEQ, eq)
	// Combine flags per predicate.
	d := a.plane(3)
	switch pred {
	case PredEQ:
		copy(d, eq)
		micro++
	case PredNE:
		for w := range d {
			d[w] = ^eq[w]
		}
		micro++
	case PredGT:
		copy(d, gt)
		micro++
	case PredGE:
		for w := range d {
			d[w] = gt[w] | eq[w]
		}
		micro++
	case PredLT:
		for w := range d {
			d[w] = ^(gt[w] | eq[w]) // NOT >=
		}
		micro += 2
	case PredLE:
		for w := range d {
			d[w] = ^gt[w]
		}
		micro++
	default:
		panic("pim: unknown predicate")
	}
	a.StorePlane(dstCol, d)
	return micro
}

// cmpStep folds one field bit plane x into the comparator's running flags
// and returns the micro-ops the step is charged.
func cmpStep(gt, eq, x []uint64, kbit bool) int {
	if kbit {
		// x_b=0 while still equal => x < k at this bit; gt unchanged;
		// eq &= x_b.
		for w := range eq {
			eq[w] &= x[w]
		}
		return 1
	}
	// x_b=1 while still equal => x > k: gt |= eq & x_b; eq &= !x_b.
	for w := range eq {
		gt[w] |= eq[w] & x[w]
		eq[w] &^= x[w]
	}
	return 2
}

// CmpMicroOps returns the micro-op count CmpConst will report, for timing
// estimation without functional execution.
func CmpMicroOps(pred Predicate, width int, k uint64) int {
	micro := 2
	for b := 0; b < width; b++ {
		if k&(1<<uint(width-1-b)) != 0 {
			micro++
		} else {
			micro += 2
		}
	}
	if pred == PredLT {
		return micro + 2
	}
	return micro + 1
}

// Predicate is a comparison against a constant.
type Predicate uint8

const (
	PredEQ Predicate = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

func (p Predicate) String() string {
	switch p {
	case PredEQ:
		return "=="
	case PredNE:
		return "!="
	case PredLT:
		return "<"
	case PredLE:
		return "<="
	case PredGT:
		return ">"
	case PredGE:
		return ">="
	default:
		return "?"
	}
}

// Eval applies the predicate to host integers (the oracle the bit-serial
// programs are property-tested against).
func (p Predicate) Eval(x, k uint64) bool {
	switch p {
	case PredEQ:
		return x == k
	case PredNE:
		return x != k
	case PredLT:
		return x < k
	case PredLE:
		return x <= k
	case PredGT:
		return x > k
	case PredGE:
		return x >= k
	default:
		panic("pim: unknown predicate")
	}
}

// FieldBE reads the big-endian field stored in columns
// [fieldBase, fieldBase+width) of a row, for tests and oracles.
func (a *ArrayImage) FieldBE(row, fieldBase, width int) uint64 {
	return ReadFieldBE(a.Row(row), fieldBase, width)
}

// SetFieldBE writes the big-endian field of a row.
func (a *ArrayImage) SetFieldBE(row, fieldBase, width int, v uint64) {
	WriteFieldBE(a.Row(row), fieldBase, width, v)
	a.dirty[row] = true
}

// ReadFieldBE reads the width-bit (1..64) big-endian field stored in bit
// columns [fieldBase, fieldBase+width) of a row image: the field's first
// column holds its most significant bit, and column c is bit c%8 of byte
// c/8. Columns therefore run LSB-first through the row while field bits
// run MSB-first, so a byte-aligned field is its bytes read little-endian
// with the bit order reversed.
func ReadFieldBE(row []byte, fieldBase, width int) uint64 {
	if fieldBase&7 != 0 {
		return readFieldBEBits(row, fieldBase, width)
	}
	return bits.Reverse64(loadLE(row[fieldBase>>3:], (width+7)>>3)) >> uint(64-width)
}

// WriteFieldBE writes v's low width bits (1..64) as the big-endian field at
// fieldBase of a row image, leaving every other column untouched. It is
// the inverse of ReadFieldBE.
func WriteFieldBE(row []byte, fieldBase, width int, v uint64) {
	if fieldBase&7 != 0 {
		writeFieldBEBits(row, fieldBase, width, v)
		return
	}
	p := row[fieldBase>>3:]
	n := (width + 7) >> 3
	mask := ^uint64(0) >> uint(64-width)
	le := bits.Reverse64(v << uint(64-width))
	storeLE(p, n, loadLE(p, n)&^mask|le&mask)
}

// readFieldBEBits is ReadFieldBE one bit at a time, for fields that do not
// start on a byte boundary.
func readFieldBEBits(row []byte, fieldBase, width int) uint64 {
	var v uint64
	for b := 0; b < width; b++ {
		col := fieldBase + b
		v = v<<1 | uint64(row[col>>3]>>uint(col&7)&1)
	}
	return v
}

// writeFieldBEBits is WriteFieldBE one bit at a time.
func writeFieldBEBits(row []byte, fieldBase, width int, v uint64) {
	for b := 0; b < width; b++ {
		col := fieldBase + b
		bit := byte(1) << uint(col&7)
		if v&(1<<uint(width-1-b)) != 0 {
			row[col>>3] |= bit
		} else {
			row[col>>3] &^= bit
		}
	}
}

// loadLE returns the n (1..8) bytes of p as a little-endian word.
func loadLE(p []byte, n int) uint64 {
	if n == 8 {
		return binary.LittleEndian.Uint64(p)
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(p[i])
	}
	return v
}

// storeLE writes the low n (1..8) bytes of v to p, little-endian.
func storeLE(p []byte, n int, v uint64) {
	if n == 8 {
		binary.LittleEndian.PutUint64(p, v)
		return
	}
	for i := 0; i < n; i++ {
		p[i] = byte(v >> uint(8*i))
	}
}
