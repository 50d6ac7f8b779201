package pimdb

import (
	"bytes"
	"math/rand"
	"testing"

	"bulkpim/internal/mem"
)

// refEncodeFieldBE and refDecodeBits are the original bit-loop codecs: one
// column per iteration, MSB first, column c at bit c%8 of byte c/8.
func refEncodeFieldBE(line []byte, base, width int, v uint64) {
	for b := 0; b < width; b++ {
		col := base + b
		if v&(1<<uint(width-1-b)) != 0 {
			line[col/8] |= 1 << uint(col%8)
		} else {
			line[col/8] &^= 1 << uint(col%8)
		}
	}
}

func refDecodeBits(line []byte, base, width int) uint64 {
	var v uint64
	for b := 0; b < width; b++ {
		col := base + b
		v <<= 1
		if line[col/8]&(1<<uint(col%8)) != 0 {
			v |= 1
		}
	}
	return v
}

// TestEncodeFieldBEMatchesBitLoop pins the byte-wide field codec to the bit
// loop for every width 1..64 in every field, over random line contents:
// the encoded line must be byte-identical (neighbouring columns and the
// bits above the width untouched) and DecodeFieldBE must return the
// value's low width bits. Layout fields are byte-aligned; unaligned bases
// are covered by the engine's own differential test (pim.WriteFieldBE).
func TestEncodeFieldBEMatchesBitLoop(t *testing.T) {
	l := DefaultLayout()
	rng := rand.New(rand.NewSource(15))
	got := make([]byte, mem.LineSize)
	want := make([]byte, mem.LineSize)
	for width := 1; width <= 64; width++ {
		for f := 0; f < l.Fields; f++ {
			rng.Read(got)
			copy(want, got)
			v := rng.Uint64()
			l.EncodeFieldBE(got, f, width, v)
			refEncodeFieldBE(want, l.FieldCol(f), width, v)
			if !bytes.Equal(got, want) {
				t.Fatalf("EncodeFieldBE(f%d, width %d, %#x):\n got %x\nwant %x", f, width, v, got, want)
			}
			mask := ^uint64(0) >> uint(64-width)
			if d := l.DecodeFieldBE(got, f, width); d != v&mask || d != refDecodeBits(want, l.FieldCol(f), width) {
				t.Fatalf("DecodeFieldBE(f%d, width %d) = %#x, want %#x", f, width, d, v&mask)
			}
		}
	}
}

// TestEncodeRecordKeyMatchesBitLoop does the same for the key at every key
// width 1..64: EncodeRecord's line equals the bit-loop encoding plus the
// copied field bytes, and DecodeKey inverts it.
func TestEncodeRecordKeyMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	l := DefaultLayout()
	fields := make([][]byte, l.Fields)
	for f := range fields {
		fields[f] = make([]byte, l.FieldBytes)
		rng.Read(fields[f])
	}
	for width := 1; width <= 64; width++ {
		l.KeyBits = width
		key := rng.Uint64() >> uint(64-width)
		got := l.EncodeRecord(key, fields)
		want := make([]byte, mem.LineSize)
		refEncodeFieldBE(want, 0, width, key)
		for f, data := range fields {
			copy(want[l.FieldByteOff(f):], data)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeRecord(KeyBits %d, %#x):\n got %x\nwant %x", width, key, got, want)
		}
		if k := l.DecodeKey(got); k != key || k != refDecodeBits(want, 0, width) {
			t.Fatalf("DecodeKey(KeyBits %d) = %#x, want %#x", width, k, key)
		}
		var stored [mem.LineSize]byte
		b := mem.NewBacking()
		l.WriteRecord(b, 0, 3, key, fields)
		b.ReadLine(l.RecordLine(0, 3), stored[:])
		if !bytes.Equal(stored[:], want) {
			t.Fatalf("WriteRecord(KeyBits %d) stored %x, want %x", width, stored, want)
		}
	}
}

// TestCompareApplyAllocsConstant pins one functional Apply of a range
// scan's compare op over a full scope at a constant number of
// allocations, independent of how many data arrays it walks: every array
// goes through one reused image.
func TestCompareApplyAllocsConstant(t *testing.T) {
	base := mem.DefaultPIMBase
	allocs := func(dataArrays int) float64 {
		l := DefaultLayout()
		l.DataArrays = dataArrays
		b := mem.NewBacking()
		b.TrackWriters = true
		for i := 0; i < l.RecordsPerScope(); i++ {
			l.WriteRecord(b, base, i, uint64(i)*7919%100000, nil)
		}
		op := l.CompileRangeScan(base, 20000, 40000, true)[0]
		return testing.AllocsPerRun(3, func() { op.Apply(b, 9) })
	}
	full, one := allocs(DefaultLayout().DataArrays), allocs(1)
	if full != one {
		t.Fatalf("compare Apply allocates %.0f objects over %d arrays but %.0f over 1: per-array allocation",
			full, DefaultLayout().DataArrays, one)
	}
	if full > 32 {
		t.Fatalf("compare Apply allocates %.0f objects, want a small constant", full)
	}
	t.Logf("compare Apply: %.0f allocs", full)
}
