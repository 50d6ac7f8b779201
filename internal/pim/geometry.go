// Package pim implements the bulk-bitwise PIM memory module: the crossbar
// array geometry and its functional bulk-bitwise execution engine (§II-A),
// and the timed module model — a bounded operation buffer, strict per-scope
// serialization ("once the PIM op starts execution, the memory array is
// occupied until the operation is complete", §III) and full parallelism
// across scopes, which is what the scope consistency model exploits (§VII).
package pim

import (
	"fmt"

	"bulkpim/internal/mem"
)

// Geometry describes the crossbar organization of one scope. The defaults
// mirror a PIMDB-style 2MB huge-page scope: 64 arrays of 512x512 memristive
// cells. One array row is 512 bits = 64 bytes = exactly one cache line, so
// the address of (array, row) is scopeBase + (array*Rows + row)*64.
//
// Records are stored one per row ("horizontal" layout, Fig. 2): bitwise
// column operations combine columns across all rows of an array in
// parallel, which is how a filter compares a field of every record at once.
type Geometry struct {
	Rows   int // rows per array; one row = one cache line
	Cols   int // bit columns per row; must be LineSize*8
	Arrays int // arrays per scope
}

// DefaultGeometry is the 2MB-scope organization described above.
func DefaultGeometry() Geometry { return Geometry{Rows: 512, Cols: mem.LineSize * 8, Arrays: 64} }

// Validate panics when the geometry does not tile a scope of scopeSize
// bytes exactly.
func (g Geometry) Validate(scopeSize uint64) {
	if g.Cols != mem.LineSize*8 {
		panic("pim: geometry columns must equal one cache line")
	}
	if uint64(g.Rows*g.Arrays*mem.LineSize) != scopeSize {
		panic(fmt.Sprintf("pim: geometry %dx%dx%d does not tile scope of %d bytes",
			g.Arrays, g.Rows, g.Cols, scopeSize))
	}
}

// LineOf returns the cache line holding row `row` of array `array` in the
// scope starting at base.
func (g Geometry) LineOf(base mem.Addr, array, row int) mem.LineAddr {
	return mem.LineOf(base + mem.Addr((array*g.Rows+row)*mem.LineSize))
}

// RowAddr returns the byte address of the row.
func (g Geometry) RowAddr(base mem.Addr, array, row int) mem.Addr {
	return base + mem.Addr((array*g.Rows+row)*mem.LineSize)
}
