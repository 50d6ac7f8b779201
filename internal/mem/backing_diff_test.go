package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// refBacking is the map-based backing store the dense page tables
// replaced: bytes in a map of 4KB pages, writer IDs in a map keyed by
// line. It is the oracle for TestBackingMatchesMapReference.
type refBacking struct {
	pages        map[uint64]*[backPageSize]byte
	writers      map[LineAddr]uint64
	TrackWriters bool
}

func newRefBacking() *refBacking {
	return &refBacking{pages: map[uint64]*[backPageSize]byte{}, writers: map[LineAddr]uint64{}}
}

func (r *refBacking) Read(a Addr, dst []byte) {
	for i := range dst {
		p := r.pages[uint64(a)/backPageSize]
		dst[i] = 0
		if p != nil {
			dst[i] = p[uint64(a)%backPageSize]
		}
		a++
	}
}

func (r *refBacking) Write(a Addr, src []byte) {
	for _, v := range src {
		idx := uint64(a) / backPageSize
		if r.pages[idx] == nil {
			r.pages[idx] = new([backPageSize]byte)
		}
		r.pages[idx][uint64(a)%backPageSize] = v
		a++
	}
}

func (r *refBacking) SetWriter(l LineAddr, ev uint64) {
	if r.TrackWriters {
		r.writers[l] = ev
	}
}

func (r *refBacking) SetWriterRange(a Addr, n uint64, ev uint64) {
	if !r.TrackWriters || n == 0 {
		return
	}
	for l := LineOf(a); l <= LineOf(a+Addr(n)-1); l += LineSize {
		r.writers[l] = ev
	}
}

// WriterOf matches the dense store's contract: nothing is reported while
// tracking is off.
func (r *refBacking) WriterOf(l LineAddr) uint64 {
	if !r.TrackWriters {
		return 0
	}
	return r.writers[l]
}

// TestBackingMatchesMapReference drives the dense backing and the
// map-based reference through the same random interleaving of byte
// writes, single and ranged writer tags and reads — page-crossing ranges
// included, with tracking toggled on and off — and requires every read
// and every WriterOf to agree.
func TestBackingMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, ref := NewBacking(), newRefBacking()
		// A few pages, some far apart, so the last-page cache both hits
		// and misses.
		bases := []Addr{0, 3 * backPageSize, 1 << 30}
		addr := func() Addr {
			return bases[rng.Intn(len(bases))] + Addr(rng.Intn(3*backPageSize))
		}
		line := func() LineAddr { return LineOf(addr()) }
		for step := 0; step < 2000; step++ {
			switch k := rng.Intn(10); {
			case k == 0:
				on := rng.Intn(2) == 0
				b.TrackWriters, ref.TrackWriters = on, on
			case k <= 2:
				a := addr()
				data := make([]byte, rng.Intn(2*backPageSize))
				rng.Read(data)
				b.Write(a, data)
				ref.Write(a, data)
			case k <= 4:
				l, ev := line(), rng.Uint64()
				b.SetWriter(l, ev)
				ref.SetWriter(l, ev)
			case k == 5:
				a, n, ev := addr(), uint64(rng.Intn(3*backPageSize)), rng.Uint64()
				b.SetWriterRange(a, n, ev)
				ref.SetWriterRange(a, n, ev)
			case k <= 7:
				l := line()
				if got, want := b.WriterOf(l), ref.WriterOf(l); got != want {
					t.Fatalf("seed %d step %d: WriterOf(%#x) = %d, want %d", seed, step, l, got, want)
				}
			default:
				a := addr()
				got := make([]byte, rng.Intn(2*backPageSize))
				want := make([]byte, len(got))
				b.Read(a, got)
				ref.Read(a, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: Read(%#x, %d) differs", seed, step, a, len(got))
				}
			}
		}
		b.TrackWriters, ref.TrackWriters = true, true
		for _, base := range bases {
			for l := LineOf(base); l < LineOf(base+4*backPageSize); l += LineSize {
				if got, want := b.WriterOf(l), ref.WriterOf(l); got != want {
					t.Fatalf("seed %d final: WriterOf(%#x) = %d, want %d", seed, l, got, want)
				}
			}
		}
	}
}
