// Package pimdb implements the PIMDB-style database organization the
// paper's workloads run on ([25], §VI-B): records stored one per crossbar
// row inside 2MB huge-page scopes, filters executed as bit-serial
// column-parallel compare programs, and per-array result bit-vectors
// gathered into host-readable result rows with a regular, non-continuous
// address pattern (the property §IV-B's SBV exploits).
package pimdb

import (
	"fmt"

	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
)

// Layout maps records, fields, scratch columns and result rows onto the
// crossbar geometry of one scope.
//
// Geometry (per 2MB scope): 64 arrays x 512 rows x 512 columns; one row is
// one 64-byte cache line. Arrays 0..62 hold records, one per row (the
// paper's Fig. 2 organization: bitwise column ops combine columns of every
// record in parallel). Array 63 is the result array: its row a holds the
// packed match bit-vector of data array a — 512 bits, one line — so a
// scope's scan result is 63 consecutive lines at a fixed in-scope offset.
// Because scopes are 2MB aligned, result lines of every scope map to the
// same few LLC sets (the clustering of §IV-B).
//
// Record row layout (512 bits):
//
//	cols   0..63   key, big-endian bit-serial
//	cols  64..463  five 10-byte fields (byte-aligned at bytes 8..57)
//	cols 464..511  scratch: compare temporaries and match columns
//	               ("intermediate values" the paper notes PIM ops
//	               implicitly change, §II-A)
type Layout struct {
	Geom pim.Geometry

	DataArrays  int // arrays holding records (the last one is results)
	ResultArray int

	KeyBits    int
	Fields     int
	FieldBytes int

	// Scratch columns.
	TmpGT, TmpEQ int
	// MatchCols are result columns for predicate terms.
	MatchCols [4]int
}

// DefaultLayout returns the layout described above.
func DefaultLayout() Layout {
	g := pim.DefaultGeometry()
	return Layout{
		Geom:        g,
		DataArrays:  g.Arrays - 1,
		ResultArray: g.Arrays - 1,
		KeyBits:     64,
		Fields:      5,
		FieldBytes:  10,
		TmpGT:       464,
		TmpEQ:       465,
		MatchCols:   [4]int{466, 467, 468, 469},
	}
}

// RecordsPerArray returns rows per data array.
func (l Layout) RecordsPerArray() int { return l.Geom.Rows }

// RecordsPerScope returns the record capacity of one scope (~32K, paper
// Table II).
func (l Layout) RecordsPerScope() int { return l.DataArrays * l.Geom.Rows }

// ScopeOfRecord maps a global record position to its scope.
func (l Layout) ScopeOfRecord(pos int) mem.ScopeID {
	return mem.ScopeID(pos / l.RecordsPerScope())
}

// Slot returns the (array, row) of a record position within its scope.
func (l Layout) Slot(pos int) (array, row int) {
	in := pos % l.RecordsPerScope()
	return in / l.Geom.Rows, in % l.Geom.Rows
}

// RecordLine returns the cache line of a record position, given the scope
// base address.
func (l Layout) RecordLine(scopeBase mem.Addr, pos int) mem.LineAddr {
	array, row := l.Slot(pos)
	return l.Geom.LineOf(scopeBase, array, row)
}

// ResultLine returns the line holding data array a's match bit-vector.
func (l Layout) ResultLine(scopeBase mem.Addr, a int) mem.LineAddr {
	return l.Geom.LineOf(scopeBase, l.ResultArray, a)
}

// ResultRegion returns the contiguous result area of a scope (all data
// arrays' bit-vectors: DataArrays consecutive lines).
func (l Layout) ResultRegion(scopeBase mem.Addr) (mem.Addr, int) {
	return l.ResultLine(scopeBase, 0).Addr(), l.DataArrays * mem.LineSize
}

// AggLine returns the line used for aggregate outputs (full-query TPC-H
// sections): a row of the result array past the bit-vectors.
func (l Layout) AggLine(scopeBase mem.Addr) mem.LineAddr {
	return l.Geom.LineOf(scopeBase, l.ResultArray, l.DataArrays)
}

// FieldByteOff returns the byte offset of field f inside a record line.
func (l Layout) FieldByteOff(f int) int {
	if f < 0 || f >= l.Fields {
		panic(fmt.Sprintf("pimdb: field %d out of range", f))
	}
	return 8 + f*l.FieldBytes
}

// FieldCol returns the first bit column of field f.
func (l Layout) FieldCol(f int) int { return l.FieldByteOff(f) * 8 }

// EncodeRecord builds the 64-byte line image of a record: key bits in
// big-endian bit-serial order, fields as plain bytes.
func (l Layout) EncodeRecord(key uint64, fields [][]byte) []byte {
	line := make([]byte, mem.LineSize)
	l.EncodeRecordInto(line, key, fields)
	return line
}

// EncodeRecordInto writes the record image into line, which must be zero
// outside the key and field columns (a fresh or reused record line).
func (l Layout) EncodeRecordInto(line []byte, key uint64, fields [][]byte) {
	pim.WriteFieldBE(line, 0, l.KeyBits, key)
	for f, data := range fields {
		off := l.FieldByteOff(f)
		copy(line[off:off+l.FieldBytes], data)
	}
}

// EncodeFieldBE writes a numeric value into field f of a record line image
// using the engine's big-endian bit-column convention (the first bit
// column of the field is the most significant bit), so CmpConst and
// FieldBE on the field see v. Text fields can use plain bytes; numeric
// fields that PIM programs compare must use this encoding.
func (l Layout) EncodeFieldBE(line []byte, f, widthBits int, v uint64) {
	pim.WriteFieldBE(line, l.FieldCol(f), widthBits, v)
}

// DecodeFieldBE reads back a numeric field written by EncodeFieldBE.
func (l Layout) DecodeFieldBE(line []byte, f, widthBits int) uint64 {
	return pim.ReadFieldBE(line, l.FieldCol(f), widthBits)
}

// DecodeKey extracts the key from a record line image.
func (l Layout) DecodeKey(line []byte) uint64 {
	return pim.ReadFieldBE(line, 0, l.KeyBits)
}

// WriteRecord stores a record image directly into backing memory
// (database initialization).
func (l Layout) WriteRecord(bk *mem.Backing, scopeBase mem.Addr, pos int, key uint64, fields [][]byte) {
	var line [mem.LineSize]byte
	l.EncodeRecordInto(line[:], key, fields)
	bk.WriteLine(l.RecordLine(scopeBase, pos), line[:])
}

// ResultBit reads match bit `row` of data array a from a result line image.
func ResultBit(line []byte, row int) bool {
	return line[row/8]&(1<<uint(row%8)) != 0
}

// SetResultBit sets a match bit in a result line image (oracle builders).
func SetResultBit(line []byte, row int, v bool) {
	if v {
		line[row/8] |= 1 << uint(row%8)
	} else {
		line[row/8] &^= 1 << uint(row%8)
	}
}
