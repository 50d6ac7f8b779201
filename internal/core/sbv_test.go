package core

import (
	"testing"

	"bulkpim/internal/sim"
)

// TestSBVBitsTrackCounts: across random OnInsert/OnEvict, every bit
// equals count > 0, PopCount and SkipRatio agree with the reference
// counts, and a Next walk visits exactly the PopCount() high sets in
// ascending order. Set counts cover sub-word, word-multiple and ragged
// sizes.
func TestSBVBitsTrackCounts(t *testing.T) {
	for _, sets := range []int{1, 7, 64, 100, 1024} {
		rng := sim.NewRand(uint64(sets))
		v := NewSBV(sets)
		ref := make([]int, sets)
		for step := 0; step < 4000; step++ {
			s := rng.Intn(sets)
			if ref[s] > 0 && rng.Intn(2) == 0 {
				v.OnEvict(s)
				ref[s]--
			} else {
				v.OnInsert(s)
				ref[s]++
			}
			if step%25 != 0 {
				continue
			}
			high := 0
			for i, c := range ref {
				if v.Test(i) != (c > 0) {
					t.Fatalf("sets=%d step %d: bit %d = %v with count %d", sets, step, i, v.Test(i), c)
				}
				if c > 0 {
					high++
				}
			}
			if v.PopCount() != high {
				t.Fatalf("sets=%d step %d: PopCount = %d, want %d", sets, step, v.PopCount(), high)
			}
			if want := 1 - float64(high)/float64(sets); v.SkipRatio() != want {
				t.Fatalf("sets=%d step %d: SkipRatio = %v, want %v", sets, step, v.SkipRatio(), want)
			}
			visited, prev := 0, -1
			for s := v.Next(0); s >= 0; s = v.Next(s + 1) {
				if s <= prev || ref[s] == 0 {
					t.Fatalf("sets=%d step %d: Next visited set %d (after %d, count %d)", sets, step, s, prev, ref[s])
				}
				visited, prev = visited+1, s
			}
			if visited != high {
				t.Fatalf("sets=%d step %d: walk visited %d sets, PopCount %d", sets, step, visited, high)
			}
		}
	}
}

func TestSBVNextBounds(t *testing.T) {
	v := NewSBV(130)
	if v.Next(0) != -1 || v.Next(129) != -1 || v.Next(130) != -1 || v.Next(-1) != -1 {
		t.Fatal("empty SBV must have no next set")
	}
	v.OnInsert(129)
	v.OnInsert(63)
	v.OnInsert(64)
	for _, c := range []struct{ from, want int }{{0, 63}, {63, 63}, {64, 64}, {65, 129}, {129, 129}, {130, -1}} {
		if got := v.Next(c.from); got != c.want {
			t.Fatalf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}
