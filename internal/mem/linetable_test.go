package mem

import (
	"testing"

	"bulkpim/internal/sim"
)

// checkAgainst asserts t holds exactly the entries of ref, through both
// Get and the slot iterator.
func checkAgainst(t *testing.T, tab *LineTable[int], ref map[LineAddr]*int) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d", tab.Len(), len(ref))
	}
	for k, v := range ref {
		if got := tab.Get(k); got != v {
			t.Fatalf("Get(%#x) = %p, reference %p", uint64(k), got, v)
		}
	}
	seen := 0
	for i := 0; i < tab.Slots(); i++ {
		k, v := tab.Slot(i)
		if v == nil {
			continue
		}
		seen++
		if ref[k] != v {
			t.Fatalf("slot %d holds %#x -> %p, reference %p", i, uint64(k), v, ref[k])
		}
	}
	if seen != len(ref) {
		t.Fatalf("iterated %d entries, reference has %d", seen, len(ref))
	}
}

// collidingKeys returns n distinct lines whose home slot in a table of
// the given size is the last one, so their probe run wraps past the end.
func collidingKeys(slots, n int) []LineAddr {
	probe := &LineTable[int]{mask: uint64(slots - 1)}
	var keys []LineAddr
	for i := uint64(0); len(keys) < n; i++ {
		k := LineAddr(i << LineShift)
		if probe.home(k) == uint64(slots-1) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestLineTableDifferential drives the table and a Go map with the same
// seeded Set/Get/Delete/iterate sequence. Half the keys come from a small
// pool, the rest collide on the last slot of the initial table, so runs
// wrap and backward-shift deletion moves entries across the wrap.
func TestLineTableDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRand(seed)
		keys := collidingKeys(lineTableMinSlots, 12)
		for i := 0; i < 40; i++ {
			keys = append(keys, LineAddr(rng.Uint64n(1<<20)<<LineShift))
		}
		tab := NewLineTable[int]()
		ref := make(map[LineAddr]*int)
		for step := 0; step < 3000; step++ {
			k := keys[rng.Intn(len(keys))]
			switch op := rng.Intn(10); {
			case op < 4:
				v := new(int)
				*v = step
				tab.Set(k, v)
				ref[k] = v
			case op < 8:
				tab.Delete(k)
				delete(ref, k)
			default:
				if got := tab.Get(k); got != ref[k] {
					t.Fatalf("seed %d step %d: Get(%#x) = %p, reference %p", seed, step, uint64(k), got, ref[k])
				}
			}
			if step%50 == 0 {
				checkAgainst(t, tab, ref)
			}
		}
		checkAgainst(t, tab, ref)
	}
}

// TestLineTableWrappedDelete pins backward-shift deletion on one wrapped
// run: deleting the head of a run that crosses the table's end must keep
// every later member reachable.
func TestLineTableWrappedDelete(t *testing.T) {
	keys := collidingKeys(lineTableMinSlots, 4)
	tab := NewLineTable[int]()
	vals := make([]int, len(keys))
	for i, k := range keys {
		tab.Set(k, &vals[i])
	}
	if tab.Slots() != lineTableMinSlots {
		t.Fatalf("table grew to %d slots; the run no longer wraps", tab.Slots())
	}
	for i, k := range keys {
		tab.Delete(k)
		for j, later := range keys[i+1:] {
			if tab.Get(later) != &vals[i+1+j] {
				t.Fatalf("after deleting %d of %d keys, key %d is unreachable", i+1, len(keys), i+1+j)
			}
		}
		if tab.Get(k) != nil {
			t.Fatalf("deleted key %d still present", i)
		}
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tab.Len())
	}
}

// TestLineTableSteadyStateAllocFree pins the table at 0 allocs/op once it
// has grown to its working size: churn within that size never allocates.
func TestLineTableSteadyStateAllocFree(t *testing.T) {
	tab := NewLineTable[int]()
	vals := make([]int, 256)
	for i := range vals {
		tab.Set(LineAddr(i<<LineShift), &vals[i])
	}
	for i := range vals {
		tab.Delete(LineAddr(i << LineShift))
	}
	next := 0
	churn := func() {
		for i := 0; i < 64; i++ {
			k := LineAddr((next + i) % 1024 << LineShift)
			tab.Set(k, &vals[i])
			_ = tab.Get(k)
		}
		for i := 0; i < 64; i++ {
			tab.Delete(LineAddr((next + i) % 1024 << LineShift))
		}
		next += 64
	}
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Fatalf("LineTable churn allocates %.2f allocs/op at steady state, want 0", avg)
	}
}
