package pim

import (
	"math/bits"

	"bulkpim/internal/mem"
)

// Bit-serial arithmetic on fields, the "complex operations" of §II-A:
// composed from the basic column ops, consuming scratch columns for
// intermediate values and taking one micro-op sequence per bit — the
// reason complex PIM ops are long and why fine-grained ISAs issue several
// PIM ops per computation (§IV-A).
//
// Functionally the host processes rows as packed 64-lane words (colview.go)
// — carry and temporary columns live in registers across the whole bit walk
// and only real operand/result columns touch the row-major image — while
// the charged micro-op counts still describe the bit-serial column-op
// sequences the hardware would execute, so timing results are unchanged.

// AddFields computes, for every row in parallel, dst = a + b where a and b
// are width-bit big-endian fields at columns aBase/bBase and dst is a
// width-bit field at dstBase (carry out discarded). carryCol and tmpCol
// are scratch columns. Returns the micro-op count charged by the timing
// model.
//
// The ripple adder walks from LSB (last column) to MSB: sum = a^b^c,
// carry' = majority(a,b,c), five column ops per bit.
func (img *ArrayImage) AddFields(aBase, bBase, dstBase, width, carryCol, tmpCol int) int {
	micro := 1 // ColSet(carryCol, false)
	ap, bp, d, carry, tmp := img.plane(0), img.plane(1), img.plane(2), img.plane(3), img.plane(4)
	for w := range carry {
		carry[w] = 0
	}
	for bit := width - 1; bit >= 0; bit-- {
		img.LoadPlane(aBase+bit, ap)
		img.LoadPlane(bBase+bit, bp)
		for w := range d {
			av, bv, cv := ap[w], bp[w], carry[w]
			t := av ^ bv
			tmp[w] = t
			d[w] = t ^ cv
			carry[w] = (av & bv) | (t & cv)
		}
		img.StorePlane(dstBase+bit, d)
		micro += 5 // xor, xor, and, and, or
	}
	img.StorePlane(tmpCol, tmp)
	img.StorePlane(carryCol, carry)
	return micro
}

// AddFieldsMicroOps returns the cost AddFields charges.
func AddFieldsMicroOps(width int) int { return 1 + 5*width }

// AddConst computes dst = a + k for every row (constant broadcast by the
// periphery), using the same scratch columns.
func (img *ArrayImage) AddConst(aBase, dstBase, width int, k uint64, carryCol int) int {
	micro := 1 // ColSet(carryCol, false)
	ap, d, carry := img.plane(0), img.plane(1), img.plane(2)
	for w := range carry {
		carry[w] = 0
	}
	for bit := width - 1; bit >= 0; bit-- {
		var bv uint64
		if k&(1<<uint(width-1-bit)) != 0 {
			bv = ^uint64(0)
		}
		img.LoadPlane(aBase+bit, ap)
		for w := range d {
			av, cv := ap[w], carry[w]
			t := av ^ bv
			d[w] = t ^ cv
			carry[w] = (av & bv) | (t & cv)
		}
		img.StorePlane(dstBase+bit, d)
		// With the constant known, each bit step specializes to ~3 ops.
		micro += 3
	}
	img.StorePlane(carryCol, carry)
	return micro
}

// MulFields computes, for every row in parallel, dst = a * b (mod
// 2^width) by shift-and-add: for each set bit of b, add the shifted a
// into the accumulator. Bit-serial multiplication is the paper's example
// of a long complex operation (§II-A: ADD, MUL built from basic ops).
// carryCol holds the ripple carry; gateCol materializes the gated addend
// bit (a's shifted bit AND b's multiplier bit) before it enters the
// adder, mirroring the charged micro-op sequence: per product bit, one
// gate AND plus the five full-adder ops.
// The host gathers a's field and the accumulator into packed planes once
// — O(width) transposes — and runs the O(width^2) shift-and-add entirely
// on words, scattering results back at the end. Operand, destination and
// scratch columns must be disjoint.
func (img *ArrayImage) MulFields(aBase, bBase, dstBase, width, carryCol, gateCol int) int {
	micro := 0
	nw := img.PlaneWords()
	// Plane slots: a's bits [0,width), accumulator [width,2*width), then
	// the multiplier bit, carry and gate planes.
	for cap(img.planeRefs) < 2*width {
		img.planeRefs = append(img.planeRefs[:cap(img.planeRefs)], nil)
	}
	aP := img.planeRefs[:width]
	dP := img.planeRefs[width : 2*width]
	for i := 0; i < width; i++ {
		aP[i] = img.plane(i)
		img.LoadPlane(aBase+i, aP[i])
		dP[i] = img.plane(width + i)
		for w := range dP[i] {
			dP[i][w] = 0 // clear the accumulator
		}
	}
	micro += width
	bp, carry, gate := img.plane(2*width), img.plane(2*width+1), img.plane(2*width+2)
	for shift := 0; shift < width; shift++ {
		bCol := bBase + width - 1 - shift // bit `shift` of b (LSB first)
		img.LoadPlane(bCol, bp)
		for w := range carry {
			carry[w] = 0 // ColSet(carryCol, false)
		}
		micro++
		for bit := width - 1; bit >= 0; bit-- {
			// The shifted addend's bit i comes from a's bit (i + shift) —
			// positions shifted out are zero.
			srcBit := bit + shift // big-endian index of a's contributing bit
			d := dP[bit]
			if srcBit >= width {
				for w := 0; w < nw; w++ {
					gate[w] = 0
					dv, cv := d[w], carry[w]
					d[w] = dv ^ cv
					carry[w] = dv & cv
				}
			} else {
				ap := aP[srcBit]
				for w := 0; w < nw; w++ {
					gv := ap[w] & bp[w]
					gate[w] = gv
					dv, cv := d[w], carry[w]
					t := dv ^ gv
					d[w] = t ^ cv
					carry[w] = (dv & gv) | (t & cv)
				}
			}
			micro += 6 // gate AND + full-adder ops
		}
	}
	for bit := 0; bit < width; bit++ {
		img.StorePlane(dstBase+bit, dP[bit])
	}
	img.StorePlane(gateCol, gate)
	img.StorePlane(carryCol, carry)
	return micro
}

// MulFieldsMicroOps returns the cost MulFields charges: width accumulator
// clears, then per shift one carry clear plus width product-bit steps of
// six ops each (gate AND + full adder).
func MulFieldsMicroOps(width int) int { return width + width*(1+6*width) }

// PopCountColumn counts the set bits of a column over rows [0, n) — the
// reduction the control logic runs for COUNT aggregates. The host counts
// 64 rows per OnesCount64; the timing model charges a log-depth reduction
// tree.
func (img *ArrayImage) PopCountColumn(col, n int) (count int, microOps int) {
	byteOff := col >> 3
	shift := uint(col & 7)
	// One packed-SWAR step per eight rows: splice the eight strided column
	// bytes into a word and count every eighth bit at once.
	mask := uint64(0x0101010101010101) << shift
	idx := byteOff
	i := 0
	for ; i+8 <= n; i += 8 {
		count += bits.OnesCount64(img.gather8(idx) & mask)
		idx += 8 * mem.LineSize
	}
	for ; i < n; i++ {
		count += int(img.rows[idx] >> shift & 1)
		idx += mem.LineSize
	}
	// Reduction tree: ~2 micro-ops per level over log2(n) levels of
	// row-pair additions, each level touching n/2 shrinking rows.
	levels := 0
	for v := n; v > 1; v >>= 1 {
		levels++
	}
	return count, 2 * levels * 8
}
