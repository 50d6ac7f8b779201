package mem

// Backing is the functional content of main memory. It is sparse: 4KB pages
// are allocated on first write, and reads of untouched memory return zeros.
// This lets the simulator address paper-scale data sets (hundreds of 2MB
// scopes) while only materializing the bytes a run actually touches.
//
// Backing also tracks, per line, the happens-before event ID of the last
// writer (store drain, writeback, or PIM op). Caches propagate the writer ID
// alongside line data so the consistency checker can build reads-from edges
// (paper Fig. 1's cycle is detected this way). Writer IDs are kept per page
// too, as a dense table of the page's 64 lines, allocated on the page's
// first tracked write: timing-only runs (TrackWriters false) never
// allocate one. The tables live apart from the bytes so that data pages
// stay pointer-free and exactly one 4KB size class.
//
// A Backing is not safe for concurrent use: even reads update its
// last-page caches.
type Backing struct {
	pages   map[uint64]*backPage
	writers map[uint64]*writerPage // nil until the first tracked write
	// One-entry caches of the last page used in each map: functional runs
	// walk memory line by line, so consecutive accesses almost always hit
	// the same page and skip the map lookup.
	lastIdx, lastWIdx uint64
	lastPage          *backPage
	lastWriters       *writerPage
	// TrackWriters enables reads-from bookkeeping (functional mode).
	TrackWriters bool
}

const (
	backPageSize = 4096
	linesPerPage = backPageSize / LineSize
)

type (
	backPage   [backPageSize]byte
	writerPage [linesPerPage]uint64
)

// NewBacking returns an empty sparse memory.
func NewBacking() *Backing {
	return &Backing{pages: make(map[uint64]*backPage)}
}

func (b *Backing) page(a Addr, create bool) (*backPage, uint64) {
	idx := uint64(a) / backPageSize
	off := uint64(a) % backPageSize
	if b.lastPage != nil && b.lastIdx == idx {
		return b.lastPage, off
	}
	p := b.pages[idx]
	if p == nil {
		if !create {
			return nil, off
		}
		p = new(backPage)
		b.pages[idx] = p
	}
	b.lastIdx, b.lastPage = idx, p
	return p, off
}

// writerPage returns the writer table of the page holding line l and l's
// slot in it; with create it allocates the table (and the map) on first
// use.
func (b *Backing) writerPage(l LineAddr, create bool) (*writerPage, uint64) {
	idx := uint64(l) / backPageSize
	slot := uint64(l) % backPageSize / LineSize
	if b.lastWriters != nil && b.lastWIdx == idx {
		return b.lastWriters, slot
	}
	w := b.writers[idx]
	if w == nil {
		if !create {
			return nil, slot
		}
		if b.writers == nil {
			b.writers = make(map[uint64]*writerPage)
		}
		w = new(writerPage)
		b.writers[idx] = w
	}
	b.lastWIdx, b.lastWriters = idx, w
	return w, slot
}

// Read copies n bytes at a into dst (zeros for unallocated memory).
// Reads may cross page boundaries.
func (b *Backing) Read(a Addr, dst []byte) {
	for len(dst) > 0 {
		p, off := b.page(a, false)
		n := backPageSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		if p == nil {
			clear(dst[:n])
		} else {
			copy(dst[:n], p[off:int(off)+n])
		}
		dst = dst[n:]
		a += Addr(n)
	}
}

// Write copies src to memory at a, allocating pages as needed.
func (b *Backing) Write(a Addr, src []byte) {
	for len(src) > 0 {
		p, off := b.page(a, true)
		n := copy(p[off:], src)
		src = src[n:]
		a += Addr(n)
	}
}

// ReadLine copies the 64-byte line l into dst (len(dst) >= LineSize).
func (b *Backing) ReadLine(l LineAddr, dst []byte) { b.Read(l.Addr(), dst[:LineSize]) }

// WriteLine stores the 64-byte line l.
func (b *Backing) WriteLine(l LineAddr, src []byte) { b.Write(l.Addr(), src[:LineSize]) }

// ReadWord returns the 8-byte little-endian word at a (must be word-aligned
// in practice, but any address works).
func (b *Backing) ReadWord(a Addr) uint64 {
	var buf [8]byte
	b.Read(a, buf[:])
	return le64(buf[:])
}

// WriteWord stores a little-endian word at a.
func (b *Backing) WriteWord(a Addr, v uint64) {
	var buf [8]byte
	putLE64(buf[:], v)
	b.Write(a, buf[:])
}

// ByteAt returns the byte at a.
func (b *Backing) ByteAt(a Addr) byte {
	p, off := b.page(a, false)
	if p == nil {
		return 0
	}
	return p[off]
}

// SetByte stores one byte at a.
func (b *Backing) SetByte(a Addr, v byte) {
	p, off := b.page(a, true)
	p[off] = v
}

// SetWriter records ev as the last writer of line l (no-op unless
// TrackWriters).
func (b *Backing) SetWriter(l LineAddr, ev uint64) {
	if b.TrackWriters {
		w, slot := b.writerPage(l, true)
		w[slot] = ev
	}
}

// SetWriterRange records ev as the writer of every line overlapping
// [a, a+n).
func (b *Backing) SetWriterRange(a Addr, n uint64, ev uint64) {
	if !b.TrackWriters || n == 0 {
		return
	}
	l, last := LineOf(a), LineOf(a+Addr(n)-1)
	for l <= last {
		w, slot := b.writerPage(l, true)
		for ; slot < linesPerPage && l <= last; slot++ {
			w[slot] = ev
			l += LineSize
		}
	}
}

// WriterOf returns the last writer event of line l (0 if unknown or when
// TrackWriters is off).
func (b *Backing) WriterOf(l LineAddr) uint64 {
	if !b.TrackWriters {
		return 0
	}
	if w, slot := b.writerPage(l, false); w != nil {
		return w[slot]
	}
	return 0
}

// PagesAllocated reports how many 4KB pages have been materialized.
func (b *Backing) PagesAllocated() int { return len(b.pages) }

func le64(p []byte) uint64 {
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

func putLE64(p []byte, v uint64) {
	p[0] = byte(v)
	p[1] = byte(v >> 8)
	p[2] = byte(v >> 16)
	p[3] = byte(v >> 24)
	p[4] = byte(v >> 32)
	p[5] = byte(v >> 40)
	p[6] = byte(v >> 48)
	p[7] = byte(v >> 56)
}
