package pim

import (
	"fmt"
	"math/rand"
	"testing"

	"bulkpim/internal/mem"
)

// TestLoadPlanes8MatchesLoadPlane pins the byte-column transpose gather to
// eight single-column gathers, for every byte column and for row counts
// below, at and across the 8-row and 64-row boundaries. The destination
// planes start full of garbage so tail bits must be written as zeros.
func TestLoadPlanes8MatchesLoadPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, rows := range []int{7, 64, 65, 100, 512} {
		img, _ := twinImages(rng, rows)
		nw := img.PlaneWords()
		var got [8][]uint64
		for j := range got {
			got[j] = make([]uint64, nw)
		}
		want := make([]uint64, nw)
		for byteCol := 0; byteCol < mem.LineSize; byteCol++ {
			for j := range got {
				for w := range got[j] {
					got[j][w] = rng.Uint64()
				}
			}
			img.LoadPlanes8(byteCol, &got)
			for j := range got {
				img.LoadPlane(8*byteCol+j, want)
				for w := range want {
					if got[j][w] != want[w] {
						t.Fatalf("rows=%d byteCol=%d plane %d word %d: %#x, LoadPlane %#x",
							rows, byteCol, j, w, got[j][w], want[w])
					}
				}
			}
		}
	}
}

// TestCmpConstFieldBasesMatchBitSerial runs the comparator's byte-column
// gather against the bit-serial reference on byte-aligned fields and on
// fields that start and end inside a byte.
func TestCmpConstFieldBasesMatchBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	preds := []Predicate{PredEQ, PredNE, PredLT, PredLE, PredGT, PredGE}
	for _, rows := range []int{7, 64, 65, 100, 512} {
		for _, base := range []int{0, 3, 9, 64, 77, 200} {
			for trial := 0; trial < 3; trial++ {
				width := 1 + rng.Intn(64)
				pred := preds[rng.Intn(len(preds))]
				k := rng.Uint64() >> uint(64-width)
				got, want := twinImages(rng, rows)
				if trial == 0 {
					// Copy k into every other row so the equality flag
					// survives the whole walk.
					for r := 0; r < rows; r += 2 {
						got.SetFieldBE(r, base, width, k)
						want.SetFieldBE(r, base, width, k)
					}
				}
				m1 := got.CmpConst(pred, base, width, k, 470, 464, 465)
				m2 := refCmpConst(want, pred, base, width, k, 470, 464, 465)
				if m1 != m2 {
					t.Fatalf("CmpConst base=%d width=%d: micro %d != reference %d", base, width, m1, m2)
				}
				assertSameImage(t, fmt.Sprintf("CmpConst rows=%d base=%d width=%d pred=%s k=%d", rows, base, width, pred, k), got, want)
			}
		}
	}
}

// refFieldBE and refSetFieldBE are the original one-bit-per-column field
// accessors.
func refFieldBE(row []byte, fieldBase, width int) uint64 {
	var v uint64
	for b := 0; b < width; b++ {
		col := fieldBase + b
		v <<= 1
		if row[col/8]&(1<<uint(col%8)) != 0 {
			v |= 1
		}
	}
	return v
}

func refSetFieldBE(row []byte, fieldBase, width int, v uint64) {
	for b := 0; b < width; b++ {
		col := fieldBase + b
		if v&(1<<uint(width-1-b)) != 0 {
			row[col/8] |= 1 << uint(col%8)
		} else {
			row[col/8] &^= 1 << uint(col%8)
		}
	}
}

// TestFieldBEMatchesBitLoop checks WriteFieldBE/ReadFieldBE against the
// bit-loop reference for every width 1..64 at byte-aligned and unaligned
// bases, over random row contents (so untouched columns must survive)
// and values with bits above the width (which must be ignored).
func TestFieldBEMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	got := make([]byte, mem.LineSize)
	want := make([]byte, mem.LineSize)
	for width := 1; width <= 64; width++ {
		for _, base := range []int{0, 1, 5, 8, 64, 67, 200, 512 - 64, 512 - width} {
			if base+width > 8*mem.LineSize {
				continue
			}
			for trial := 0; trial < 4; trial++ {
				rng.Read(got)
				copy(want, got)
				v := rng.Uint64()
				WriteFieldBE(got, base, width, v)
				refSetFieldBE(want, base, width, v)
				if string(got) != string(want) {
					t.Fatalf("WriteFieldBE(base=%d, width=%d, %#x):\n got %x\nwant %x", base, width, v, got, want)
				}
				if r, w := ReadFieldBE(got, base, width), refFieldBE(want, base, width); r != w {
					t.Fatalf("ReadFieldBE(base=%d, width=%d) = %#x, reference %#x", base, width, r, w)
				}
				if width < 64 && ReadFieldBE(got, base, width) != v&(1<<uint(width)-1) {
					t.Fatalf("base=%d width=%d: round trip lost %#x", base, width, v)
				}
			}
		}
	}
}

// TestStoreAllDirtyMatchesRowStores pins Store's whole-array write (after a
// column op dirties every row) to row-by-row stores: same bytes, same
// writer on every line, neighbouring arrays untouched.
func TestStoreAllDirtyMatchesRowStores(t *testing.T) {
	g := Geometry{Rows: 100, Cols: mem.LineSize * 8, Arrays: 3}
	rng := rand.New(rand.NewSource(5))
	fast, slow := mem.NewBacking(), mem.NewBacking()
	fast.TrackWriters, slow.TrackWriters = true, true
	init := make([]byte, g.Arrays*g.ArrayBytes())
	rng.Read(init)
	fast.Write(0, init)
	slow.Write(0, init)
	img := LoadArray(fast, 0, g, 1)
	img.ColNot(5, 9)
	img.Store(fast, 42)
	ref := LoadArray(slow, 0, g, 1)
	for r := 0; r < g.Rows; r++ {
		ref.SetBit(r, 5, !ref.Bit(r, 9))
		ref.Store(slow, 42) // one dirty row at a time
		ref.Reload(slow, 1)
	}
	a, b := make([]byte, len(init)), make([]byte, len(init))
	fast.Read(0, a)
	slow.Read(0, b)
	if string(a) != string(b) {
		t.Fatal("whole-array Store wrote different bytes than row stores")
	}
	for l := mem.LineAddr(0); l < mem.LineAddr(len(init)); l += mem.LineSize {
		if fast.WriterOf(l) != slow.WriterOf(l) {
			t.Fatalf("line %#x writer %d, row stores %d", l, fast.WriterOf(l), slow.WriterOf(l))
		}
	}
}

// TestReloadMatchesLoadArray checks that an image reused across arrays
// holds exactly what a fresh load would and forgets the previous array's
// dirty rows.
func TestReloadMatchesLoadArray(t *testing.T) {
	g := Geometry{Rows: 64, Cols: mem.LineSize * 8, Arrays: 4}
	rng := rand.New(rand.NewSource(6))
	b := mem.NewBacking()
	b.TrackWriters = true
	init := make([]byte, g.Arrays*g.ArrayBytes())
	rng.Read(init)
	b.Write(0, init)
	img := LoadArray(b, 0, g, 0)
	img.ColSet(3, true) // dirty every row of array 0, then drop it
	img.SetBit(1, 4, true)
	for a := 1; a < g.Arrays; a++ {
		img.Reload(b, a)
		fresh := LoadArray(b, 0, g, a)
		assertSameImage(t, fmt.Sprintf("array %d", a), img, fresh)
		img.Store(b, 9)
		for r := 0; r < g.Rows; r++ {
			if b.WriterOf(g.LineOf(0, a, r)) != 0 {
				t.Fatalf("array %d row %d: a clean reload stored a row", a, r)
			}
		}
	}
}
