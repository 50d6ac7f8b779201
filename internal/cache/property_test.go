package cache

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
	"bulkpim/internal/trace"
)

// Randomized mixes of loads, stores, PIM scans, flushes and fences must
// preserve the coherence invariants at every step and never lose data
// that reached its visibility point.
func TestCoherenceInvariantsWithPIMScans(t *testing.T) {
	r := newRig(t, core.Atomic, 3)
	rng := sim.NewRand(777)
	scopeOf := func(s int) mem.ScopeID { return mem.ScopeID(s % 4) }
	for step := 0; step < 500; step++ {
		switch rng.Intn(10) {
		case 0, 1: // PIM op with scan
			r.llc.Receive(pimReq(scopeOf(rng.Intn(4))))
			if _, err := r.k.Run(); err != nil {
				t.Fatal(err)
			}
		case 2: // flush a random scope line
			scope := scopeOf(rng.Intn(4))
			line := mem.LineOf(r.scopes.ScopeBase(scope) + mem.Addr(rng.Intn(64)*mem.LineSize))
			req := &mem.Request{Kind: mem.ReqFlush, Line: line, Core: 0}
			r.llc.Receive(req)
			if _, err := r.k.Run(); err != nil {
				t.Fatal(err)
			}
		case 3, 4, 5: // store into a scope
			scope := scopeOf(rng.Intn(4))
			line := mem.LineOf(r.scopes.ScopeBase(scope) + mem.Addr(rng.Intn(64)*mem.LineSize))
			r.storeVia(t, rng.Intn(3), line, rng.Intn(mem.LineSize), byte(step), uint64(step+1))
		default: // load
			scope := scopeOf(rng.Intn(4))
			line := mem.LineOf(r.scopes.ScopeBase(scope) + mem.Addr(rng.Intn(64)*mem.LineSize))
			r.loadVia(t, rng.Intn(3), line)
		}
		if addr, bad := r.llc.CheckSWMR(); bad {
			t.Fatalf("step %d: SWMR violated at %#x", step, uint64(addr))
		}
		if addr, bad := r.llc.CheckInclusive(); bad {
			t.Fatalf("step %d: inclusivity violated at %#x", step, uint64(addr))
		}
	}
}

// After a PIM op's scan, no line of the scope remains in any cache and
// the scope buffer claims exactly that.
func TestScanPostconditionProperty(t *testing.T) {
	r := newRig(t, core.Store, 2)
	rng := sim.NewRand(31)
	for round := 0; round < 30; round++ {
		scope := mem.ScopeID(rng.Intn(4))
		// Populate some lines of the scope.
		for i := 0; i < 5; i++ {
			line := mem.LineOf(r.scopes.ScopeBase(scope) + mem.Addr(rng.Intn(32)*mem.LineSize))
			if rng.Intn(2) == 0 {
				r.storeVia(t, rng.Intn(2), line, 0, byte(round), uint64(round*10+i+1))
			} else {
				r.loadVia(t, rng.Intn(2), line)
			}
		}
		r.llc.Receive(pimReq(scope))
		if _, err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		// Postcondition: nothing of the scope cached anywhere.
		base := r.scopes.ScopeBase(scope)
		for idx := 0; idx < 64; idx++ {
			line := mem.LineOf(base + mem.Addr(idx*mem.LineSize))
			if r.llc.HasLine(line) {
				t.Fatalf("round %d: scope %d line %#x survived the scan in LLC", round, scope, uint64(line))
			}
			for _, l1 := range r.l1s {
				if l1.HasLine(line) {
					t.Fatalf("round %d: scope %d line %#x survived in an L1", round, scope, uint64(line))
				}
			}
		}
	}
}

// Dirty data written before a scan must reach backing memory before the
// PIM op executes, for any random population (the atomicity guarantee).
func TestScanWritebackOrderingProperty(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := newRig(t, core.Atomic, 2)
		rng := sim.NewRand(seed)
		scope := mem.ScopeID(1)
		base := r.scopes.ScopeBase(scope)
		want := map[mem.Addr]byte{}
		for i := 0; i < 8; i++ {
			line := mem.LineOf(base + mem.Addr(rng.Intn(48)*mem.LineSize))
			v := byte(rng.Intn(255) + 1)
			r.storeVia(t, rng.Intn(2), line, 0, v, uint64(i+1))
			want[line.Addr()] = v
		}
		var mismatch int
		req := pimReq(scope)
		req.PIM.Program.Apply = func(b *mem.Backing, w uint64) {
			for a, v := range want {
				if b.ByteAt(a) != v {
					mismatch++
				}
			}
		}
		r.llc.Receive(req)
		if _, err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		if mismatch != 0 {
			t.Fatalf("seed %d: PIM op observed %d stale lines", seed, mismatch)
		}
	}
}

// The LLC egress keeps per-scope FIFO order into the MC even under
// credit pressure.
func TestEgressOrderUnderPressure(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	r.mc.QueueSize = 2
	scope := mem.ScopeID(1)
	var order []string
	for i := 0; i < 6; i++ {
		req := pimReq(scope)
		name := string(rune('a' + i))
		req.PIM.Program.Name = name
		req.PIM.Program.Apply = func(b *mem.Backing, w uint64) { order = append(order, name) }
		r.llc.Receive(req)
	}
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("executed %d ops, want 6", len(order))
	}
	for i, n := range order {
		if n != string(rune('a'+i)) {
			t.Fatalf("same-scope PIM ops reordered: %v", order)
		}
	}
}

// A scan visits exactly the sets the SBV marks: the sets it reports
// scanning equal the SBV's PopCount() just before it, which equals the
// sets holding a PIM-enabled line, so the skip-ratio sample is the SBV's
// own SkipRatio(). Holds for the LLC and for the L1s' scope-fence scans.
func TestSBVScanVisitsPopCountSets(t *testing.T) {
	r := newRig(t, core.ScopeRelaxed, 2)
	var tr strings.Builder
	r.llc.Tracer = trace.New(r.k.Now, &tr, 1<<trace.CatCache, 0)
	rng := sim.NewRand(13)
	pimSets := func(arr *setAssoc) int {
		n := 0
		for s := 0; s < arr.sets; s++ {
			set := arr.set(s)
			for i := range set {
				if set[i].valid && set[i].PIMEnabled {
					n++
					break
				}
			}
		}
		return n
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < 6; i++ {
			scope := mem.ScopeID(rng.Intn(4))
			line := mem.LineOf(r.scopes.ScopeBase(scope) + mem.Addr(rng.Intn(64)*mem.LineSize))
			r.loadVia(t, rng.Intn(2), line)
		}
		scope := mem.ScopeID(rng.Intn(4))
		l1 := r.l1s[rng.Intn(2)]
		if pop, want := l1.SBV.PopCount(), pimSets(&l1.arr); pop != want {
			t.Fatalf("round %d: L1 SBV PopCount %d, sets holding PIM lines %d", round, pop, want)
		}
		if l1.SB.Lookup(scope) {
			l1.SB.Invalidate(scope) // force a real scan
		}
		pop := l1.SBV.PopCount()
		if scanned, _ := l1.ScanFlushScope(scope); scanned != pop {
			t.Fatalf("round %d: L1 scan visited %d sets, SBV PopCount %d", round, scanned, pop)
		}

		pop = r.llc.SBV.PopCount()
		if want := pimSets(&r.llc.arr); pop != want {
			t.Fatalf("round %d: LLC SBV PopCount %d, sets holding PIM lines %d", round, pop, want)
		}
		if r.llc.SB.Lookup(scope) {
			r.llc.SB.Invalidate(scope)
		}
		skip := r.llc.SBV.SkipRatio()
		tr.Reset()
		before := r.llc.SkipRatio.Sum()
		r.llc.Receive(pimReq(scope))
		if _, err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		var gotScope mem.ScopeID
		var scanned, flushed int
		line := tr.String()
		line = line[strings.Index(line, "scan "):]
		if _, err := fmt.Sscanf(line, "scan scope=%d sets=%d flushed=%d", &gotScope, &scanned, &flushed); err != nil {
			t.Fatalf("round %d: no scan trace in %q: %v", round, tr.String(), err)
		}
		if scanned != pop {
			t.Fatalf("round %d: LLC scan visited %d sets, SBV PopCount %d", round, scanned, pop)
		}
		if got := r.llc.SkipRatio.Sum() - before; math.Abs(got-skip) > 1e-12 {
			t.Fatalf("round %d: skip-ratio sample %v, SBV SkipRatio %v", round, got, skip)
		}
	}
}
