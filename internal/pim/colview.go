package pim

import (
	"encoding/binary"

	"bulkpim/internal/mem"
)

// Column-major bit-plane view of an ArrayImage.
//
// The functional engine's unit of work is a column operation: combine one
// bit of every row. Row-major storage makes that a strided single-bit
// walk, so the original engine paid a Bit/SetBit call per row per column
// op. A bit plane packs column c of 64 consecutive rows into one uint64 —
// bit r%64 of word r/64 is cell (r, c) — so a boolean column op becomes
// one machine word op per 64 rows: the host-side analogue of the
// bulk-bitwise parallelism the simulated arrays embody (and of the
// long-stride 8-bytes-per-putLong trick bulk-bitwise simulators use).
// Gather/scatter between the row-major truth and the packed planes is a
// byte walk with line-size stride; everything between is word-parallel.

// PlaneWords returns the packed-plane length: one uint64 per 64 rows.
func (a *ArrayImage) PlaneWords() int { return (a.g.Rows + 63) / 64 }

// LoadPlane gathers column col into dst, which must hold PlaneWords()
// words. Bit r%64 of dst[r/64] is cell (r, col); tail bits past the last
// row are zero.
func (a *ArrayImage) LoadPlane(col int, dst []uint64) {
	byteOff := col >> 3
	shift := uint(col & 7)
	rows := a.g.Rows
	for w := range dst {
		base := w * 64
		n := rows - base
		if n > 64 {
			n = 64
		}
		var word uint64
		idx := base*mem.LineSize + byteOff
		for i := 0; i < n; i++ {
			word |= uint64(a.rows[idx]>>shift&1) << uint(i)
			idx += mem.LineSize
		}
		dst[w] = word
	}
}

// LoadPlanes8 gathers the eight columns of byte column byteCol — columns
// 8*byteCol .. 8*byteCol+7 — into dst[0..7] in one pass over the rows;
// dst[j] receives what LoadPlane(8*byteCol+j, dst[j]) would. Each step
// splices one byte of eight consecutive rows into a word and transposes
// it as an 8x8 bit matrix, which turns "byte i = row i" into "byte j =
// column j", so a multi-bit field costs one strided pass per byte rather
// than one per bit.
func (a *ArrayImage) LoadPlanes8(byteCol int, dst *[8][]uint64) {
	rows := a.g.Rows
	for w := range dst[0] {
		base := w * 64
		var acc [8]uint64
		for g := 0; g < 8; g++ {
			r := base + 8*g
			if r >= rows {
				break
			}
			idx := r*mem.LineSize + byteCol
			var x uint64
			if rows-r >= 8 {
				x = a.gather8(idx)
			} else {
				for i := 0; i < rows-r; i++ { // last rows; the rest read as zero
					x |= uint64(a.rows[idx+i*mem.LineSize]) << uint(8*i)
				}
			}
			t := transpose8(x)
			for j := range acc {
				acc[j] |= (t >> uint(8*j) & 0xFF) << uint(8*g)
			}
		}
		for j := range acc {
			dst[j][w] = acc[j]
		}
	}
}

// gather8 splices the bytes at idx, idx+LineSize, ..., idx+7*LineSize —
// one byte column of eight consecutive rows — into one word, row i in
// byte i.
func (a *ArrayImage) gather8(idx int) uint64 {
	r := a.rows[idx : idx+7*mem.LineSize+1]
	return uint64(r[0]) |
		uint64(r[mem.LineSize])<<8 |
		uint64(r[2*mem.LineSize])<<16 |
		uint64(r[3*mem.LineSize])<<24 |
		uint64(r[4*mem.LineSize])<<32 |
		uint64(r[5*mem.LineSize])<<40 |
		uint64(r[6*mem.LineSize])<<48 |
		uint64(r[7*mem.LineSize])<<56
}

// transpose8 transposes the 8x8 bit matrix held in x, where bit 8*i+j is
// element (i, j): afterwards bit 8*j+i holds it. Three delta swaps
// exchange ever larger off-diagonal blocks (Hacker's Delight, 7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	x ^= t ^ t<<28
	return x
}

// StorePlane scatters src back into column col and marks every row dirty —
// a column write touches all rows, exactly like ColSet/ColOp.
func (a *ArrayImage) StorePlane(col int, src []uint64) {
	byteOff := col >> 3
	bit := byte(1) << uint(col&7)
	rows := a.g.Rows
	for w, word := range src {
		base := w * 64
		n := rows - base
		if n > 64 {
			n = 64
		}
		idx := base*mem.LineSize + byteOff
		for i := 0; i < n; i++ {
			if word>>uint(i)&1 != 0 {
				a.rows[idx] |= bit
			} else {
				a.rows[idx] &^= bit
			}
			idx += mem.LineSize
		}
	}
	a.allDirty = true
}

// SetRowBits writes bits [0, n) of the packed words into columns [0, n) of
// one row, leaving higher columns untouched. Packed plane words and row
// bytes share the same LSB-first bit order, so full words land as plain
// 8-byte little-endian stores — the result-gather transpose writes one
// word per 64 match bits instead of one SetBit per record.
func (a *ArrayImage) SetRowBits(row int, bits []uint64, n int) {
	if n > a.g.Cols {
		panic("pim: row write wider than row")
	}
	out := a.Row(row)
	full := n / 64
	for w := 0; w < full; w++ {
		binary.LittleEndian.PutUint64(out[w*8:], bits[w])
	}
	for i := full * 64; i < n; i++ {
		if bits[i/64]>>uint(i%64)&1 != 0 {
			out[i/8] |= 1 << uint(i%8)
		} else {
			out[i/8] &^= 1 << uint(i%8)
		}
	}
	a.dirty[row] = true
}

// plane returns reusable zero-initialized-on-first-use scratch plane
// `slot`. Slots are per-image and per-call-frame: engine entry points use
// disjoint slot ranges and never nest, so no slot is live across two
// concurrent uses. Contents are whatever the previous user left — callers
// overwrite or clear before reading.
func (a *ArrayImage) plane(slot int) []uint64 {
	nw := a.PlaneWords()
	for len(a.planes) <= slot {
		a.planes = append(a.planes, make([]uint64, nw))
	}
	return a.planes[slot]
}

// truthMasks expands an arbitrary BoolOp into the four word-wide masks of
// its truth table, so any two-input boolean function — the five named ops
// or a custom one — applies word-parallel without changing the BoolOp API.
func truthMasks(op BoolOp) (t00, t01, t10, t11 uint64) {
	if op(false, false) {
		t00 = ^uint64(0)
	}
	if op(false, true) {
		t01 = ^uint64(0)
	}
	if op(true, false) {
		t10 = ^uint64(0)
	}
	if op(true, true) {
		t11 = ^uint64(0)
	}
	return
}

// wordOp applies a truth table to packed operands: out bit = op(x bit, y bit).
func wordOp(x, y, t00, t01, t10, t11 uint64) uint64 {
	return (^x & ^y & t00) | (^x & y & t01) | (x & ^y & t10) | (x & y & t11)
}
