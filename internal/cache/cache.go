// Package cache implements the host cache hierarchy of §V-A: private L1s
// and a shared, inclusive last-level cache with a MESI directory, extended
// with the paper's coherence hardware — per-cache scope buffer and scope
// bit-vector — and the scan-and-flush operation PIM ops and scope-fences
// perform on their way to memory (§IV).
//
// Protocol design note: coherence state transitions execute atomically
// inside event handlers (no transient states); message latencies are
// charged on the request/response paths. This keeps the protocol
// race-free by construction while preserving the timing behaviour the
// paper's evaluation depends on (hit/miss latencies, scan cost, back
// pressure). One race the paper leaves implicit is handled explicitly:
// a miss outstanding to a scope when a PIM op scans the LLC would install
// a pre-PIM line after the flush; such fills are delivered bypass-cache
// (loads) or replayed (stores). See DESIGN.md.
package cache

import (
	"bulkpim/internal/core"
	"bulkpim/internal/mem"
)

// MESI is the coherence state of a cached line.
type MESI uint8

const (
	Invalid MESI = iota
	Shared
	Exclusive
	Modified
)

func (s MESI) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Slot flags.
const (
	// flagDirty marks LLC contents newer than memory (merged L1 writebacks).
	flagDirty uint8 = 1 << iota
	// flagPIM marks lines of PIM-enabled scopes (drives the SBV).
	flagPIM
	// flagData marks a slot holding a payload. Timing runs keep the flag
	// without the bytes: whether an L1 copy is dirty depends on it.
	flagData
)

// slotMeta is one slot's coherence and directory metadata. It holds no
// pointers, so the GC never scans the metadata array.
type slotMeta struct {
	// sharers (LLC only) is a bitmask of cores holding S copies.
	sharers uint64
	scope   mem.ScopeID
	state   MESI
	flags   uint8
	// owner (LLC only) is the core holding E/M, or -1.
	owner int8
}

func (m *slotMeta) dirty() bool      { return m.flags&flagDirty != 0 }
func (m *slotMeta) pimEnabled() bool { return m.flags&flagPIM != 0 }

// setAssoc is an N-way set-associative array with LRU replacement, kept
// as pointer-free parallel slices indexed by slot = set*ways + way. A probe
// compares one set's contiguous tag words; Victim is one argmin over its
// LRU stamps.
type setAssoc struct {
	sets, ways int
	// tags holds addr|1 for a valid slot and 0 for an invalid one (line
	// addresses are 64-byte aligned, so bit 0 is free).
	tags []uint64
	// used holds LRU stamps. An invalid slot's stamp is 0 and a valid
	// slot's is >= 1, so the argmin picks the first invalid way if any.
	used  []uint64
	meta  []slotMeta
	clock uint64
	// pay stores payload bytes and writers; nil in timing runs.
	pay *payloads
}

func newSetAssoc(sets, ways int) setAssoc {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic("cache: geometry must be positive with power-of-two sets")
	}
	n := sets * ways
	meta := make([]slotMeta, n)
	for i := range meta {
		meta[i].owner = -1
	}
	return setAssoc{sets: sets, ways: ways, tags: make([]uint64, n), used: make([]uint64, n), meta: meta}
}

// storePayloads makes the array keep payload bytes and writers.
func (c *setAssoc) storePayloads() {
	c.pay = newPayloads(len(c.tags))
}

// SetOf maps a line address to its set index.
func (c *setAssoc) SetOf(l mem.LineAddr) int {
	return int(l.Index() & uint64(c.sets-1))
}

// Lookup returns the line's slot if present, refreshing LRU, else -1.
func (c *setAssoc) Lookup(l mem.LineAddr) int {
	c.clock++
	s := c.Peek(l)
	if s >= 0 {
		c.used[s] = c.clock
	}
	return s
}

// Peek returns the line's slot without touching LRU, or -1.
func (c *setAssoc) Peek(l mem.LineAddr) int {
	base := c.SetOf(l) * c.ways
	tag := uint64(l) | 1
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// Victim returns the slot to fill for line l: an invalid way if one
// exists, else the LRU way (whose previous contents the caller must evict).
func (c *setAssoc) Victim(l mem.LineAddr) int {
	base := c.SetOf(l) * c.ways
	v, least := base, c.used[base]
	for i, u := range c.used[base+1 : base+c.ways] {
		if u < least {
			v, least = base+1+i, u
		}
	}
	return v
}

// Install places line l into slot s (which the caller has vacated),
// resetting its metadata and payload.
func (c *setAssoc) Install(s int, l mem.LineAddr, state MESI) {
	c.clock++
	c.tags[s], c.used[s] = uint64(l)|1, c.clock
	c.meta[s] = slotMeta{state: state, owner: -1}
	if c.pay != nil {
		c.pay.release(s)
		c.pay.writer[s] = 0
	}
}

// Invalidate clears slot s.
func (c *setAssoc) Invalidate(s int) {
	c.tags[s], c.used[s] = 0, 0
	c.meta[s] = slotMeta{owner: -1}
	if c.pay != nil {
		c.pay.release(s)
	}
}

// Valid reports whether slot s holds a line.
func (c *setAssoc) Valid(s int) bool { return c.tags[s] != 0 }

// Addr returns the line held in valid slot s.
func (c *setAssoc) Addr(s int) mem.LineAddr { return mem.LineAddr(c.tags[s] &^ 1) }

// hasData reports whether slot s holds a payload.
func (c *setAssoc) hasData(s int) bool { return c.meta[s].flags&flagData != 0 }

// data returns slot s's payload bytes: nil when the slot holds none or the
// array stores no bytes (timing runs). The slice aliases the array and is
// valid until the slot's payload is dropped.
func (c *setAssoc) data(s int) []byte {
	if c.pay == nil || !c.hasData(s) {
		return nil
	}
	return c.pay.bytes(s)
}

// writer returns the happens-before event of the write that produced slot
// s's payload (0 in timing runs, which record none).
func (c *setAssoc) writer(s int) uint64 {
	if c.pay == nil {
		return 0
	}
	return c.pay.writer[s]
}

// setData replaces slot s's payload: has says whether there is one, src
// holds its bytes (read only when the array stores them).
func (c *setAssoc) setData(s int, src []byte, has bool, writer uint64) {
	m := &c.meta[s]
	if !has {
		m.flags &^= flagData
		if c.pay != nil {
			c.pay.release(s)
			c.pay.writer[s] = writer
		}
		return
	}
	m.flags |= flagData
	if c.pay != nil {
		copy(c.pay.bytes(s), src[:mem.LineSize])
		c.pay.writer[s] = writer
	}
}

// store writes src at byte offset off of slot s's payload, creating a
// zeroed payload first if the slot has none.
func (c *setAssoc) store(s, off int, src []byte, writer uint64) {
	c.meta[s].flags |= flagData
	if c.pay != nil {
		copy(c.pay.bytes(s)[off:off+len(src)], src)
		c.pay.writer[s] = writer
	}
}

// clone returns a pooled copy of slot s's payload bytes, or nil when there
// are none to copy.
func (c *setAssoc) clone(p *mem.RequestPool, s int) []byte {
	if d := c.data(s); d != nil {
		return p.CloneLine(d)
	}
	return nil
}

// payloads holds a functional cache's line bytes in an arena of LineSize
// entries that grows a chunk at a time as lines gain data, with a free
// list, plus one writer per slot. Chunks never move, so growth copies
// nothing and leaves no slack beyond the last chunk. Timing runs allocate
// none of it.
type payloads struct {
	ref    []int32  // per slot: arena entry + 1, or 0 when none
	writer []uint64 // per slot
	chunks [][]byte // chunkLines entries each
	used   int32    // entries handed out so far
	free   []int32
}

// chunkLines is the arena's growth step: 8 KB of payloads.
const chunkLines = 128

func newPayloads(slots int) *payloads {
	return &payloads{ref: make([]int32, slots), writer: make([]uint64, slots)}
}

// bytes returns slot s's payload entry, attaching a zeroed one (recycled
// from the free list, else fresh) if the slot has none.
func (p *payloads) bytes(s int) []byte {
	e := p.ref[s] - 1
	if e >= 0 {
		return p.entry(e)
	}
	if n := len(p.free); n > 0 {
		e = p.free[n-1]
		p.free = p.free[:n-1]
		clear(p.entry(e))
	} else {
		e = p.used
		p.used++
		if int(e)/chunkLines == len(p.chunks) {
			p.chunks = append(p.chunks, make([]byte, chunkLines*mem.LineSize))
		}
	}
	p.ref[s] = e + 1
	return p.entry(e)
}

func (p *payloads) entry(e int32) []byte {
	i := int(e%chunkLines) * mem.LineSize
	return p.chunks[e/chunkLines][i : i+mem.LineSize : i+mem.LineSize]
}

// release returns slot s's entry, if any, to the free list.
func (p *payloads) release(s int) {
	if e := p.ref[s]; e != 0 {
		p.free = append(p.free, e-1)
		p.ref[s] = 0
	}
}

// scanNext returns the first set at or after s that a scope scan must
// visit, or -1: every set without an SBV, else only the sets whose SBV bit
// is high, found a word of 64 sets at a time.
func scanNext(sbv *core.SBV, sets, s int) int {
	if sbv != nil {
		return sbv.Next(s)
	}
	if s < sets {
		return s
	}
	return -1
}

// FillWaiter is a closure-free L1 fill continuation: Fn(Ctx, line, data,
// writer) runs when the miss's data arrives. Issuers pass a package-level
// function plus their own state as Ctx, so joining a miss allocates
// nothing.
type FillWaiter struct {
	Fn  func(ctx any, line mem.LineAddr, data []byte, writer uint64)
	Ctx any
}

// ExclWaiter is the closure-free continuation for store misses: Fn(Ctx)
// runs once the line is installed writable.
type ExclWaiter struct {
	Fn  func(ctx any)
	Ctx any
}

// completeReq adapts Request.Complete to the (fn, ctx) link-delivery shape:
// the LLC replies to flushes and fences by sending the request itself back
// over the core's response link.
func completeReq(x any) { x.(*mem.Request).Complete() }
