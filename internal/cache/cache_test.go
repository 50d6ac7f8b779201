package cache

import (
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/memctrl"
	"bulkpim/internal/noc"
	"bulkpim/internal/pim"
	"bulkpim/internal/sim"
)

// rig wires cores' L1s, an LLC, MC and PIM module with short links.
type rig struct {
	k      *sim.Kernel
	b      *mem.Backing
	scopes *mem.ScopeMap
	l1s    []*L1
	llc    *LLC
	mc     *memctrl.Controller
	mod    *pim.Module
}

func newRig(t *testing.T, model core.Model, cores int) *rig {
	t.Helper()
	k := sim.NewKernel()
	k.EventLimit = 5_000_000
	b := mem.NewBacking()
	b.TrackWriters = true
	scopes := mem.NewScopeMap(mem.DefaultPIMBase, mem.DefaultScopeSize, 16)
	mod := pim.NewModule(k, b)
	mod.Functional = true
	mc := memctrl.New(k, mod, b)
	llc := NewLLC(k, model, 16, 2, 18, scopes)
	llc.StorePayloads()
	rng := sim.NewRand(7)
	l1s := make([]*L1, cores)
	down := make([]*noc.Link, cores)
	for i := range l1s {
		l1s[i] = NewL1(k, i, 4, 2, 3)
		l1s[i].StorePayloads()
		if model.ScopeStructuresInAllCaches() {
			l1s[i].EnableScopeStructures(16, 1)
		}
		up := noc.NewLink(k, "up", 8, 0, 1, rng.Fork())
		l1s[i].Connect(llc, up)
		down[i] = noc.NewLink(k, "down", 8, 0, 1, rng.Fork())
	}
	mcLink := noc.NewLink(k, "mc", 6, 0, 1, rng.Fork())
	mcResp := noc.NewLink(k, "mcr", 6, 0, 1, rng.Fork())
	llc.Connect(l1s, down, mc, mcLink, mcResp)
	return &rig{k: k, b: b, scopes: scopes, l1s: l1s, llc: llc, mc: mc, mod: mod}
}

// cloneData copies a line payload out of a pooled buffer.
func cloneData(d []byte) []byte {
	if d == nil {
		return nil
	}
	out := make([]byte, len(d))
	copy(out, d)
	return out
}

// CheckInclusive verifies every valid L1 line is present in the LLC
// It returns the first violating line address.
func (l *LLC) CheckInclusive() (mem.LineAddr, bool) {
	for _, l1 := range l.l1s {
		for s := range l1.arr.tags {
			if l1.arr.Valid(s) && l.arr.Peek(l1.arr.Addr(s)) < 0 {
				return l1.arr.Addr(s), true
			}
		}
	}
	return 0, false
}

// CheckSWMR verifies the single-writer/multiple-reader invariant across
// L1s: a line modified in one L1 appears in no other L1.
func (l *LLC) CheckSWMR() (mem.LineAddr, bool) {
	type holder struct{ m, any int }
	seen := make(map[mem.LineAddr]*holder)
	for _, l1 := range l.l1s {
		for s := range l1.arr.tags {
			if !l1.arr.Valid(s) {
				continue
			}
			addr := l1.arr.Addr(s)
			h := seen[addr]
			if h == nil {
				h = &holder{}
				seen[addr] = h
			}
			h.any++
			if st := l1.arr.meta[s].state; st == Modified || st == Exclusive {
				h.m++
			}
		}
	}
	for addr, h := range seen {
		if h.m > 0 && h.any > 1 {
			return addr, true
		}
	}
	return 0, false
}

// loadVia fetches a line through core i's L1, returning the observed data.
func (r *rig) loadVia(t *testing.T, i int, line mem.LineAddr) []byte {
	t.Helper()
	if data, _, ok := r.l1s[i].TryLoad(line); ok {
		out := make([]byte, mem.LineSize)
		copy(out, data)
		return out
	}
	var got []byte
	req := &mem.Request{Kind: mem.ReqLoad, Line: line, Scope: r.scopes.ScopeOf(line.Addr()), Core: i}
	r.l1s[i].RequestLine(req, FillWaiter{Fn: func(_ any, _ mem.LineAddr, data []byte, _ uint64) {
		got = make([]byte, mem.LineSize)
		copy(got, data)
	}}, ExclWaiter{})
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("load never completed")
	}
	return got
}

// storeVia writes one byte through core i's L1 (fetching exclusivity).
func (r *rig) storeVia(t *testing.T, i int, line mem.LineAddr, off int, val byte, writer uint64) {
	t.Helper()
	if r.l1s[i].TryStore(line, off, []byte{val}, writer) {
		return
	}
	done := false
	req := &mem.Request{Kind: mem.ReqLoad, Line: line, Scope: r.scopes.ScopeOf(line.Addr()), Core: i, Excl: true}
	r.l1s[i].RequestLine(req, FillWaiter{}, ExclWaiter{Fn: func(any) {
		if !r.l1s[i].TryStore(line, off, []byte{val}, writer) {
			t.Error("store failed after exclusive fill")
		}
		done = true
	}})
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("store never completed")
	}
}

func TestL1MissFillsAndHits(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	r.b.SetByte(100, 0x42)
	line := mem.LineOf(100)
	data := r.loadVia(t, 0, line)
	if data[100-64] != 0x42 {
		t.Fatalf("loaded %#x, want 0x42", data[100-64])
	}
	if _, _, ok := r.l1s[0].TryLoad(line); !ok {
		t.Fatal("second access should hit L1")
	}
	if !r.llc.HasLine(line) {
		t.Fatal("LLC must hold the line (inclusive)")
	}
	if r.l1s[0].Misses.Value() == 0 || r.llc.Misses.Value() == 0 {
		t.Fatal("miss counters not bumped")
	}
}

func TestStoreUpgradeAndWritebackChain(t *testing.T) {
	r := newRig(t, core.Atomic, 2)
	line := mem.LineAddr(0)
	// Core 0 loads (gets E), core 1 loads (downgrade to S at both).
	r.loadVia(t, 0, line)
	r.loadVia(t, 1, line)
	// Core 0 stores: must invalidate core 1's copy.
	r.storeVia(t, 0, line, 0, 0x55, 9)
	if r.l1s[1].HasLine(line) {
		t.Fatal("core 1 copy must be invalidated by core 0's store")
	}
	// Core 1 loads again: data must come from core 0's dirty copy.
	data := r.loadVia(t, 1, line)
	if data[0] != 0x55 {
		t.Fatalf("core 1 read %#x, want 0x55 from dirty owner", data[0])
	}
	if addr, bad := r.llc.CheckSWMR(); bad {
		t.Fatalf("SWMR violated at %#x", uint64(addr))
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	// LLC: 16 sets x 2 ways. Fill 3 lines mapping to the same LLC set
	// (stride sets*64): the third fill evicts one and must back-invalidate
	// the L1 copy.
	stride := uint64(16 * mem.LineSize)
	lines := []mem.LineAddr{0, mem.LineAddr(stride), mem.LineAddr(2 * stride)}
	for _, ln := range lines {
		r.loadVia(t, 0, ln)
	}
	present := 0
	for _, ln := range lines {
		if r.l1s[0].HasLine(ln) {
			present++
		}
	}
	if present != 2 {
		t.Fatalf("L1 holds %d of the conflicting lines, want 2 after back-invalidation", present)
	}
	if addr, bad := r.llc.CheckInclusive(); bad {
		t.Fatalf("inclusivity violated at %#x", uint64(addr))
	}
}

func TestDirtyEvictionReachesMemory(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	line := mem.LineAddr(0)
	r.storeVia(t, 0, line, 0, 0x77, 3)
	// Evict through LLC set conflicts.
	stride := uint64(16 * mem.LineSize)
	r.loadVia(t, 0, mem.LineAddr(stride))
	r.loadVia(t, 0, mem.LineAddr(2*stride))
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.b.ByteAt(0) != 0x77 {
		t.Fatalf("memory byte = %#x, want 0x77 after dirty eviction", r.b.ByteAt(0))
	}
	if r.b.WriterOf(line) != 3 {
		t.Fatal("writer id lost on writeback")
	}
}

// pimReq builds a PIM op request for the rig's scope s.
func pimReq(s mem.ScopeID) *mem.Request {
	return &mem.Request{Kind: mem.ReqPIMOp, Scope: s, Core: 0,
		PIM: &mem.PIMCommand{Scope: s, Program: &mem.PIMProgram{Name: "nop"}}}
}

func TestPIMOpScanFlushesScopeAndWritesBackFirst(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	scope := mem.ScopeID(2)
	base := r.scopes.ScopeBase(scope)
	line := mem.LineOf(base)
	// Dirty a line of the scope in the L1.
	r.storeVia(t, 0, line, 0, 0xAB, 5)
	// The PIM op must flush it; the op's functional Apply observes memory
	// AFTER the writeback (egress FIFO + MC same-scope ordering).
	var seen byte = 0xFF
	req := pimReq(scope)
	req.PIM.Program.Apply = func(b *mem.Backing, w uint64) { seen = b.ByteAt(base) }
	r.llc.Receive(req)
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 0xAB {
		t.Fatalf("PIM op saw %#x, want 0xAB (flush must precede the op)", seen)
	}
	if r.l1s[0].HasLine(line) || r.llc.HasLine(line) {
		t.Fatal("scope line must be flushed from all levels")
	}
	if r.llc.Scans.Value() != 1 {
		t.Fatalf("scans = %d, want 1", r.llc.Scans.Value())
	}
}

func TestScopeBufferHitSkipsSecondScan(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	scope := mem.ScopeID(2)
	line := mem.LineOf(r.scopes.ScopeBase(scope))
	r.loadVia(t, 0, line)
	r.llc.Receive(pimReq(scope))
	r.llc.Receive(pimReq(scope))
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.llc.Scans.Value() != 1 {
		t.Fatalf("scans = %d, want 1 (second op hits scope buffer)", r.llc.Scans.Value())
	}
	if r.llc.SBHitRate.Hits() != 1 || r.llc.SBHitRate.Total() != 2 {
		t.Fatalf("scope buffer hit rate %d/%d, want 1/2", r.llc.SBHitRate.Hits(), r.llc.SBHitRate.Total())
	}
	// Mean scan latency counts the hit as zero (Fig. 10c definition).
	if r.llc.ScanLatency.Count() != 2 {
		t.Fatal("scan latency must be sampled per PIM op")
	}
}

func TestLineInsertErasesScopeBufferEntry(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	scope := mem.ScopeID(2)
	line := mem.LineOf(r.scopes.ScopeBase(scope))
	r.llc.Receive(pimReq(scope)) // scan (empty), inserts scope into SB
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	r.loadVia(t, 0, line) // inserting a scope line must erase the SB entry
	r.llc.Receive(pimReq(scope))
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.llc.Scans.Value() != 2 {
		t.Fatalf("scans = %d, want 2 (insert must invalidate scope buffer)", r.llc.Scans.Value())
	}
}

func TestSBVSkipsUntouchedSets(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	scope := mem.ScopeID(2)
	line := mem.LineOf(r.scopes.ScopeBase(scope))
	r.loadVia(t, 0, line) // one PIM line in one set
	r.llc.Receive(pimReq(scope))
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.llc.SkipRatio.Count() != 1 {
		t.Fatal("skip ratio not sampled")
	}
	want := 1 - 1.0/16
	if got := r.llc.SkipRatio.Value(); got != want {
		t.Fatalf("skip ratio = %v, want %v", got, want)
	}
}

func TestSWFlushLineFlush(t *testing.T) {
	r := newRig(t, core.SWFlush, 1)
	line := mem.LineAddr(0)
	r.storeVia(t, 0, line, 0, 0x99, 4)
	done := false
	req := &mem.Request{Kind: mem.ReqFlush, Line: line, Core: 0, OnDone: func(*mem.Request, any) { done = true }}
	r.llc.Receive(req)
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("flush not acknowledged")
	}
	if r.l1s[0].HasLine(line) || r.llc.HasLine(line) {
		t.Fatal("flushed line still cached")
	}
	if r.b.ByteAt(0) != 0x99 {
		t.Fatal("flush lost dirty data")
	}
}

func TestBaselinePIMOpDoesNotFlush(t *testing.T) {
	r := newRig(t, core.Naive, 1)
	scope := mem.ScopeID(2)
	line := mem.LineOf(r.scopes.ScopeBase(scope))
	r.storeVia(t, 0, line, 0, 0x21, 6)
	var seen byte = 0xFF
	req := pimReq(scope)
	req.PIM.Program.Apply = func(b *mem.Backing, w uint64) { seen = b.ByteAt(mem.Addr(line)) }
	r.llc.Receive(req)
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if seen == 0x21 {
		t.Fatal("naive baseline must NOT flush the dirty line (stale PIM input expected)")
	}
	if !r.l1s[0].HasLine(line) {
		t.Fatal("naive baseline must leave the cache untouched")
	}
}

// A load miss outstanding when a PIM op scans must not install a pre-PIM
// line afterwards (the stale-fill bypass).
func TestStaleMissBypassesCache(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	scope := mem.ScopeID(2)
	base := r.scopes.ScopeBase(scope)
	line := mem.LineOf(base)
	r.b.SetByte(base, 0x01) // pre-PIM value

	var got []byte
	req := &mem.Request{Kind: mem.ReqLoad, Line: line, Scope: scope, Core: 0}
	r.l1s[0].RequestLine(req, FillWaiter{Fn: func(_ any, _ mem.LineAddr, data []byte, _ uint64) {
		got = cloneData(data)
	}}, ExclWaiter{})
	// PIM op that rewrites the byte, racing with the outstanding miss:
	// delivered after the GetS registers at the LLC but before the DRAM
	// fill returns.
	p := pimReq(scope)
	p.PIM.Program.Apply = func(b *mem.Backing, w uint64) { b.SetByte(base, 0x02) }
	r.k.ScheduleCtx(40, func(any) { r.llc.Receive(p) }, nil)
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("load never completed")
	}
	if r.l1s[0].HasLine(line) || r.llc.HasLine(line) {
		t.Fatal("stale fill must not be cached at any level")
	}
	// A fresh load now observes the post-PIM value from memory.
	data := r.loadVia(t, 0, line)
	if data[0] != 0x02 {
		t.Fatalf("post-PIM load got %#x, want 0x02", data[0])
	}
}

// A store (exclusive) miss outstanding during a scan must be replayed so it
// lands on post-PIM data.
func TestStaleExclusiveMissReplays(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	scope := mem.ScopeID(2)
	base := r.scopes.ScopeBase(scope)
	line := mem.LineOf(base)
	r.b.SetByte(base+1, 0x0A)

	stored := false
	req := &mem.Request{Kind: mem.ReqLoad, Line: line, Scope: scope, Core: 0, Excl: true}
	r.l1s[0].RequestLine(req, FillWaiter{}, ExclWaiter{Fn: func(any) {
		if !r.l1s[0].TryStore(line, 0, []byte{0xEE}, 8) {
			t.Error("store failed after replayed exclusive fill")
		}
		stored = true
	}})
	p := pimReq(scope)
	p.PIM.Program.Apply = func(b *mem.Backing, w uint64) { b.SetByte(base+1, 0x0B) }
	r.k.ScheduleCtx(40, func(any) { r.llc.Receive(p) }, nil)
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !stored {
		t.Fatal("store never completed")
	}
	// The line in L1 must contain the post-PIM byte at offset 1 plus the
	// store's byte at offset 0.
	data, _, ok := r.l1s[0].TryLoad(line)
	if !ok {
		t.Fatal("line must be cached after replay")
	}
	if data[0] != 0xEE || data[1] != 0x0B {
		t.Fatalf("line = %#x %#x, want 0xEE 0x0B (store on post-PIM data)", data[0], data[1])
	}
}

func TestScopeFenceFlushesAllLevels(t *testing.T) {
	r := newRig(t, core.ScopeRelaxed, 1)
	scope := mem.ScopeID(2)
	base := r.scopes.ScopeBase(scope)
	line := mem.LineOf(base)
	r.storeVia(t, 0, line, 0, 0x31, 7)

	// L1 scan first (as the fence passes the level), then LLC fence.
	sets, flushed := r.l1s[0].ScanFlushScope(scope)
	if flushed != 1 || sets == 0 {
		t.Fatalf("L1 scan: sets=%d flushed=%d, want 1 flushed", sets, flushed)
	}
	done := false
	fence := &mem.Request{Kind: mem.ReqScopeFence, Scope: scope, Core: 0, OnDone: func(*mem.Request, any) { done = true }}
	r.llc.Receive(fence)
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("scope fence not acknowledged")
	}
	if r.l1s[0].HasLine(line) || r.llc.HasLine(line) {
		t.Fatal("fence left scope lines cached")
	}
	if r.b.ByteAt(base) != 0x31 {
		t.Fatal("fence lost dirty data")
	}
}

func TestUncacheablePassThrough(t *testing.T) {
	r := newRig(t, core.Uncacheable, 1)
	r.b.SetByte(200, 0x66)
	line := mem.LineOf(200)
	var got []byte
	req := &mem.Request{Kind: mem.ReqLoad, Line: line, Core: 0, Uncacheable: true}
	req.OnDone = func(r *mem.Request, _ any) { got = cloneData(r.Data) }
	r.llc.Receive(req)
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got[200-192] != 0x66 {
		t.Fatal("uncacheable load wrong")
	}
	if r.llc.HasLine(line) || r.l1s[0].HasLine(line) {
		t.Fatal("uncacheable access must not allocate")
	}
}

// Randomized coherence workload: SWMR and inclusivity hold throughout.
func TestCoherenceInvariantsRandom(t *testing.T) {
	r := newRig(t, core.Atomic, 3)
	rng := sim.NewRand(123)
	for step := 0; step < 400; step++ {
		coreID := rng.Intn(3)
		line := mem.LineAddr(uint64(rng.Intn(64)) * mem.LineSize)
		if rng.Intn(2) == 0 {
			r.loadVia(t, coreID, line)
		} else {
			r.storeVia(t, coreID, line, rng.Intn(mem.LineSize), byte(step), uint64(step+1))
		}
		if addr, bad := r.llc.CheckSWMR(); bad {
			t.Fatalf("step %d: SWMR violated at %#x", step, uint64(addr))
		}
		if addr, bad := r.llc.CheckInclusive(); bad {
			t.Fatalf("step %d: inclusivity violated at %#x", step, uint64(addr))
		}
	}
}

// Stores must be read back correctly through arbitrary sharing patterns.
func TestDataIntegrityAcrossSharing(t *testing.T) {
	r := newRig(t, core.Atomic, 3)
	rng := sim.NewRand(321)
	shadow := make(map[mem.Addr]byte)
	for step := 0; step < 600; step++ {
		coreID := rng.Intn(3)
		line := mem.LineAddr(uint64(rng.Intn(32)) * mem.LineSize)
		off := rng.Intn(mem.LineSize)
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(256))
			r.storeVia(t, coreID, line, off, v, uint64(step+1))
			shadow[line.Addr()+mem.Addr(off)] = v
		} else {
			data := r.loadVia(t, coreID, line)
			want, okW := shadow[line.Addr()+mem.Addr(off)]
			if okW && data[off] != want {
				t.Fatalf("step %d: read %#x, want %#x", step, data[off], want)
			}
		}
	}
}
