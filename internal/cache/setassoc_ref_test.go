package cache

import (
	"bytes"
	"reflect"
	"testing"

	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

// refLine and refSetAssoc are the array-of-structs set-associative cache
// the structure-of-arrays setAssoc replaced, kept as the reference for the
// differential test below: per-line valid flags, LRU stamps and a payload
// slice that is non-nil exactly when the line has data.
type refLine struct {
	addr  mem.LineAddr
	data  []byte
	used  uint64
	valid bool
}

type refSetAssoc struct {
	sets, ways int
	lines      []refLine
	clock      uint64
}

func newRefSetAssoc(sets, ways int) *refSetAssoc {
	return &refSetAssoc{sets: sets, ways: ways, lines: make([]refLine, sets*ways)}
}

func (c *refSetAssoc) set(l mem.LineAddr) []refLine {
	idx := int(l.Index() & uint64(c.sets-1))
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

func (c *refSetAssoc) lookup(l mem.LineAddr) *refLine {
	c.clock++
	p := c.peek(l)
	if p != nil {
		p.used = c.clock
	}
	return p
}

func (c *refSetAssoc) peek(l mem.LineAddr) *refLine {
	set := c.set(l)
	for i := range set {
		if p := &set[i]; p.valid && p.addr == l {
			return p
		}
	}
	return nil
}

func (c *refSetAssoc) victim(l mem.LineAddr) *refLine {
	set := c.set(l)
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].used < victim.used {
			victim = &set[i]
		}
	}
	return victim
}

func (c *refSetAssoc) install(v *refLine, l mem.LineAddr) {
	c.clock++
	v.addr, v.data, v.used, v.valid = l, nil, c.clock, true
}

func (c *refSetAssoc) invalidate(v *refLine) { v.valid, v.data = false, nil }

// setData mirrors the old pooled setLineData: copy into the line's
// buffer, allocating it on first use; nil drops it.
func (c *refSetAssoc) setData(v *refLine, src []byte) {
	if src == nil {
		v.data = nil
		return
	}
	if v.data == nil {
		v.data = make([]byte, mem.LineSize)
	}
	copy(v.data, src)
}

// store mirrors the old L1.TryStore payload write.
func (c *refSetAssoc) store(v *refLine, off int, src []byte) {
	if v.data == nil {
		v.data = make([]byte, mem.LineSize)
	}
	copy(v.data[off:], src)
}

func (c *refSetAssoc) slot(p *refLine) int {
	for i := range c.lines {
		if &c.lines[i] == p {
			return i
		}
	}
	return -1
}

// Random Lookup/Peek/Victim/Install/Invalidate and payload sequences give
// the reference's hits, victim ways, evictions and payloads, on a timing
// array (has-data flags only) and a functional one (bytes too) alike.
func TestSetAssocMatchesAoSReference(t *testing.T) {
	const sets, ways, lines = 8, 4, 72
	for _, seed := range []uint64{1, 7, 42, 1 << 40} {
		rng := sim.NewRand(seed)
		ref := newRefSetAssoc(sets, ways)
		timing := newSetAssoc(sets, ways)
		functional := newSetAssoc(sets, ways)
		functional.storePayloads()
		arrs := []*setAssoc{&timing, &functional}
		randLine := func() mem.LineAddr { return mem.LineAddr(rng.Intn(lines) * mem.LineSize) }
		randBytes := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(256))
			}
			return b
		}
		for step := 0; step < 20000; step++ {
			l := randLine()
			switch op := rng.Intn(7); op {
			case 0, 1: // Lookup / Peek
				var want int
				if op == 0 {
					want = ref.slot(ref.lookup(l))
				} else {
					want = ref.slot(ref.peek(l))
				}
				for _, a := range arrs {
					got := a.Peek(l)
					if op == 0 {
						got = a.Lookup(l)
					}
					if got != want {
						t.Fatalf("seed %d step %d: op %d(%#x) slot %d, reference %d", seed, step, op, l, got, want)
					}
				}
			case 2, 3: // miss fill: Victim, evict, Install
				if ref.peek(l) != nil {
					continue
				}
				rv := ref.victim(l)
				want := ref.slot(rv)
				wantEvict := rv.valid
				wantAddr := rv.addr
				if rv.valid {
					ref.invalidate(rv)
				}
				ref.install(rv, l)
				var src []byte
				if op == 2 {
					src = randBytes(mem.LineSize)
					ref.setData(rv, src)
				}
				for _, a := range arrs {
					v := a.Victim(l)
					if v != want {
						t.Fatalf("seed %d step %d: victim slot %d, reference %d", seed, step, v, want)
					}
					if a.Valid(v) != wantEvict || (wantEvict && a.Addr(v) != wantAddr) {
						t.Fatalf("seed %d step %d: eviction (%v %#x), reference (%v %#x)",
							seed, step, a.Valid(v), a.Addr(v), wantEvict, wantAddr)
					}
					if a.Valid(v) {
						a.Invalidate(v)
					}
					a.Install(v, l, Shared)
					if src != nil {
						a.setData(v, src, true, uint64(step))
					}
				}
			case 4: // Invalidate a resident line
				rv := ref.peek(l)
				if rv == nil {
					continue
				}
				ref.invalidate(rv)
				for _, a := range arrs {
					a.Invalidate(a.Peek(l))
				}
			case 5: // replace or drop a resident line's payload
				rv := ref.peek(l)
				if rv == nil {
					continue
				}
				var src []byte
				if rng.Intn(3) != 0 {
					src = randBytes(mem.LineSize)
				}
				ref.setData(rv, src)
				for _, a := range arrs {
					a.setData(a.Peek(l), src, src != nil, uint64(step))
				}
			case 6: // partial store
				rv := ref.peek(l)
				if rv == nil {
					continue
				}
				off := rng.Intn(mem.LineSize - 8)
				src := randBytes(1 + rng.Intn(8))
				ref.store(rv, off, src)
				for _, a := range arrs {
					a.store(a.Peek(l), off, src, uint64(step))
				}
			}
			for s := range ref.lines {
				rl := &ref.lines[s]
				for _, a := range arrs {
					if a.Valid(s) != rl.valid || (rl.valid && a.Addr(s) != rl.addr) {
						t.Fatalf("seed %d step %d: slot %d holds (%v %#x), reference (%v %#x)",
							seed, step, s, a.Valid(s), a.Addr(s), rl.valid, rl.addr)
					}
					if a.hasData(s) != (rl.data != nil) {
						t.Fatalf("seed %d step %d: slot %d has-data %v, reference %v", seed, step, s, a.hasData(s), rl.data != nil)
					}
				}
				if timing.data(s) != nil {
					t.Fatalf("seed %d step %d: timing array returned payload bytes", seed, step)
				}
				if !bytes.Equal(functional.data(s), rl.data) {
					t.Fatalf("seed %d step %d: slot %d payload differs from the reference", seed, step, s)
				}
			}
		}
	}
}

// The payload arena reuses freed entries, zeroed, before growing.
func TestPayloadArenaReusesZeroedEntries(t *testing.T) {
	p := newPayloads(4)
	for s := 0; s < 3; s++ {
		b := p.bytes(s)
		for i := range b {
			b[i] = 0xFF
		}
	}
	if p.used != 3 || len(p.chunks) != 1 {
		t.Fatalf("arena handed out %d entries in %d chunks for 3 payloads", p.used, len(p.chunks))
	}
	p.release(1)
	p.release(1) // releasing an empty slot is a no-op
	if len(p.free) != 1 {
		t.Fatalf("free list %v, want one entry", p.free)
	}
	b := p.bytes(3)
	if p.used != 3 || p.ref[3] != 2 {
		t.Fatalf("slot 3 got entry %d with %d entries handed out: freed entry not reused", p.ref[3]-1, p.used)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("reused entry byte %d = %#x, want zeroed", i, v)
		}
	}
	if got := p.bytes(0); got[0] != 0xFF {
		t.Fatal("a live entry changed when another was reused")
	}
}

// hasPointers reports whether values of type t contain any pointer.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// The per-slot arrays are pointer-free, so the GC never scans a cache's
// slots and no slot store pays a write barrier; the timing-run metadata
// costs at most 32 bytes per slot.
func TestSlotArraysHoldNoPointers(t *testing.T) {
	a := newSetAssoc(2, 2)
	a.storePayloads()
	perSlot := uintptr(0)
	for name, s := range map[string]any{
		"tags": a.tags, "used": a.used, "meta": a.meta,
		"ref": a.pay.ref, "writer": a.pay.writer, "free": a.pay.free, "chunk": []byte(nil),
	} {
		elem := reflect.TypeOf(s).Elem()
		if hasPointers(elem) {
			t.Errorf("%s elements (%v) hold pointers", name, elem)
		}
		if name == "tags" || name == "used" || name == "meta" {
			perSlot += elem.Size()
		}
	}
	if perSlot > 32 {
		t.Errorf("timing slot state takes %d bytes, want <= 32", perSlot)
	}
}
