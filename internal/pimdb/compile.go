package pimdb

import (
	"fmt"
	"math/bits"

	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
)

// Bulk-bitwise PIM instruction sets are fine-grained (AND, OR, compare
// steps; §IV-A), so one database operation compiles to SEVERAL PIM ops per
// scope — the temporal locality the scope buffer exploits. The compilers
// below return the op sequence for one scope; the same sequence must be
// issued to every scope holding data ("If data in multiple scopes require
// the same processing, the required PIM ops should be duplicated for each
// scope", §III).

// GatherMicroOpsPerArray is the cost of packing one data array's match
// column into its result row (inter-array column-to-row move).
const GatherMicroOpsPerArray = 2

// CompileRangeScan builds the PIM ops that scan one scope for records with
// key in [lo, hi]: a >=lo compare, a <=hi compare, and an AND+gather that
// packs per-record match bits into the result rows.
func (l Layout) CompileRangeScan(scopeBase mem.Addr, lo, hi uint64, functional bool) []*mem.PIMProgram {
	geGather := func(b *mem.Backing, writer uint64) {
		l.forEachDataArray(b, scopeBase, writer, func(img *pim.ArrayImage) {
			img.CmpConst(pim.PredGE, 0, l.KeyBits, lo, l.MatchCols[0], l.TmpGT, l.TmpEQ)
		})
	}
	leApply := func(b *mem.Backing, writer uint64) {
		l.forEachDataArray(b, scopeBase, writer, func(img *pim.ArrayImage) {
			img.CmpConst(pim.PredLE, 0, l.KeyBits, hi, l.MatchCols[1], l.TmpGT, l.TmpEQ)
		})
	}
	andApply := func(b *mem.Backing, writer uint64) {
		l.forEachDataArray(b, scopeBase, writer, func(img *pim.ArrayImage) {
			img.ColOp(pim.OpAND, l.MatchCols[2], l.MatchCols[0], l.MatchCols[1])
		})
	}
	gather := l.gatherApply(scopeBase, 2)

	ops := []*mem.PIMProgram{
		{Name: "cmp_ge(key)", MicroOps: pim.CmpMicroOps(pim.PredGE, l.KeyBits, lo)},
		{Name: "cmp_le(key)", MicroOps: pim.CmpMicroOps(pim.PredLE, l.KeyBits, hi)},
		{Name: "and", MicroOps: 1},
		{Name: "gather", MicroOps: GatherMicroOpsPerArray * l.DataArrays},
	}
	if functional {
		ops[0].Apply = geGather
		ops[1].Apply = leApply
		ops[2].Apply = andApply
		ops[3].Apply = gather
	}
	return ops
}

// CompareSpec is one predicate term of a filter (TPC-H WHERE clauses).
type CompareSpec struct {
	Field int
	Pred  pim.Predicate
	// WidthBits of the compared prefix of the field (dates 32, quantities
	// 16, flags 8 ...).
	WidthBits int
	Const     uint64
	// Dst selects the match column (0..3) receiving the term result.
	Dst int
}

// CompileCompare builds the PIM op for one predicate term on every record
// of a scope.
func (l Layout) CompileCompare(scopeBase mem.Addr, spec CompareSpec, functional bool) *mem.PIMProgram {
	if spec.WidthBits <= 0 || spec.WidthBits > 64 {
		panic(fmt.Sprintf("pimdb: compare width %d", spec.WidthBits))
	}
	op := &mem.PIMProgram{
		Name:     fmt.Sprintf("cmp(f%d%s%d)", spec.Field, spec.Pred, spec.Const),
		MicroOps: pim.CmpMicroOps(spec.Pred, spec.WidthBits, spec.Const),
	}
	if functional {
		col := l.FieldCol(spec.Field)
		op.Apply = func(b *mem.Backing, writer uint64) {
			l.forEachDataArray(b, scopeBase, writer, func(img *pim.ArrayImage) {
				img.CmpConst(spec.Pred, col, spec.WidthBits, spec.Const, l.MatchCols[spec.Dst], l.TmpGT, l.TmpEQ)
			})
		}
	}
	return op
}

// CombineOp merges match columns.
type CombineOp struct {
	Op       pim.BoolOp
	OpName   string
	A, B, To int // match column indices
}

// CompileCombine builds one column-combine PIM op (AND/OR of two terms).
func (l Layout) CompileCombine(scopeBase mem.Addr, c CombineOp, functional bool) *mem.PIMProgram {
	op := &mem.PIMProgram{
		Name:     fmt.Sprintf("combine(%s m%d m%d->m%d)", c.OpName, c.A, c.B, c.To),
		MicroOps: 1,
	}
	if functional {
		op.Apply = func(b *mem.Backing, writer uint64) {
			l.forEachDataArray(b, scopeBase, writer, func(img *pim.ArrayImage) {
				img.ColOp(c.Op, l.MatchCols[c.To], l.MatchCols[c.A], l.MatchCols[c.B])
			})
		}
	}
	return op
}

// CompileGather packs match column src into the result rows.
func (l Layout) CompileGather(scopeBase mem.Addr, src int, functional bool) *mem.PIMProgram {
	op := &mem.PIMProgram{
		Name:     "gather",
		MicroOps: GatherMicroOpsPerArray * l.DataArrays,
	}
	if functional {
		op.Apply = l.gatherApply(scopeBase, src)
	}
	return op
}

// CompileAggregate models the in-PIM aggregation of full-query sections
// (TPC-H q1/q6/q22, [25]): a long bit-serial multiply-accumulate over the
// matched records. Functionally it sums the 32-bit prefix of field
// `field` over records whose match bit (column src) is set, writing the
// total to the scope's aggregate line.
func (l Layout) CompileAggregate(scopeBase mem.Addr, src, field, microOps int, functional bool) *mem.PIMProgram {
	op := &mem.PIMProgram{Name: "aggregate", MicroOps: microOps}
	if functional {
		col := l.FieldCol(field)
		op.Apply = func(b *mem.Backing, writer uint64) {
			var sum uint64
			img := pim.NewArrayImage(l.Geom, scopeBase)
			match := make([]uint64, img.PlaneWords())
			for a := 0; a < l.DataArrays; a++ {
				img.Reload(b, a)
				img.LoadPlane(l.MatchCols[src], match)
				for w, m := range match {
					for ; m != 0; m &= m - 1 {
						sum += img.FieldBE(w*64+bits.TrailingZeros64(m), col, 32)
					}
				}
			}
			line := l.AggLine(scopeBase)
			b.WriteWord(line.Addr(), sum)
			b.SetWriter(line, writer)
		}
	}
	return op
}

// CompileCount builds the in-PIM COUNT aggregate: a per-array popcount of
// the match column reduced across arrays, with the scope total written to
// the aggregate line.
func (l Layout) CompileCount(scopeBase mem.Addr, src int, functional bool) *mem.PIMProgram {
	micro := l.DataArrays * (2*9*8 + 8) // log2(512)=9 reduction levels + accumulate
	op := &mem.PIMProgram{Name: "count", MicroOps: micro}
	if functional {
		op.Apply = func(b *mem.Backing, writer uint64) {
			var total uint64
			img := pim.NewArrayImage(l.Geom, scopeBase)
			for a := 0; a < l.DataArrays; a++ {
				img.Reload(b, a)
				n, _ := img.PopCountColumn(l.MatchCols[src], l.Geom.Rows)
				total += uint64(n)
			}
			line := l.AggLine(scopeBase)
			b.WriteWord(line.Addr(), total)
			b.SetWriter(line, writer)
		}
	}
	return op
}

// gatherApply moves match column src of every data array into the result
// array rows. The packed bit plane of a match column is exactly the
// result row's bit pattern, so each array's 512 match bits move as eight
// word stores instead of 512 single-bit copies.
func (l Layout) gatherApply(scopeBase mem.Addr, src int) func(*mem.Backing, uint64) {
	return func(b *mem.Backing, writer uint64) {
		res := pim.LoadArray(b, scopeBase, l.Geom, l.ResultArray)
		plane := make([]uint64, res.PlaneWords())
		img := pim.NewArrayImage(l.Geom, scopeBase)
		for a := 0; a < l.DataArrays; a++ {
			img.Reload(b, a)
			img.LoadPlane(l.MatchCols[src], plane)
			res.SetRowBits(a, plane, l.Geom.Rows)
		}
		res.Store(b, writer)
	}
}

// forEachDataArray runs fn on every data array of the scope and stores
// each back, all through one reused image.
func (l Layout) forEachDataArray(b *mem.Backing, scopeBase mem.Addr, writer uint64, fn func(*pim.ArrayImage)) {
	img := pim.NewArrayImage(l.Geom, scopeBase)
	for a := 0; a < l.DataArrays; a++ {
		img.Reload(b, a)
		fn(img)
		img.Store(b, writer)
	}
}

// TotalMicroOps sums a program sequence's micro-ops (latency estimation).
func TotalMicroOps(ops []*mem.PIMProgram) int {
	n := 0
	for _, op := range ops {
		n += op.MicroOps
	}
	return n
}
