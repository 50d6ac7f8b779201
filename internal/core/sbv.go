package core

import "math/bits"

// SBV is the scope bit-vector of §IV-B: one bit per cache set, high when
// the set holds at least one cache line from a PIM-enabled scope. A cache
// scan for a PIM op only visits sets whose bit is high; the rest are
// skipped, which is what keeps LLC scan latency tens of cycles instead of
// thousands (Fig. 10c/d).
//
// Hardware updates the bit on insertion directly and, on eviction of a
// PIM-enabled line, re-checks the remaining lines of the set. The simulator
// tracks an exact per-set count of PIM-enabled lines, which yields the same
// bit value as the hardware's check, and keeps the bits themselves packed
// one per set in words so a scan can skip 64 clear sets at a time.
type SBV struct {
	counts []uint32
	bits   []uint64 // bit s of word s/64 is counts[s] > 0
}

// NewSBV builds a scope bit-vector for a cache with the given set count.
func NewSBV(sets int) *SBV {
	if sets <= 0 {
		panic("core: SBV needs positive set count")
	}
	return &SBV{counts: make([]uint32, sets), bits: make([]uint64, (sets+63)/64)}
}

// OnInsert records insertion of a PIM-enabled line into set.
func (v *SBV) OnInsert(set int) {
	if v.counts[set] == 0 {
		v.bits[set>>6] |= 1 << (set & 63)
	}
	v.counts[set]++
}

// OnEvict records removal of a PIM-enabled line from set (eviction, flush,
// or invalidation).
func (v *SBV) OnEvict(set int) {
	switch v.counts[set] {
	case 0:
		panic("core: SBV eviction underflow")
	case 1:
		v.bits[set>>6] &^= 1 << (set & 63)
	}
	v.counts[set]--
}

// Test reports the bit of set: true when the set must be scanned.
func (v *SBV) Test(set int) bool { return v.bits[set>>6]&(1<<(set&63)) != 0 }

// Next returns the first set at or after from whose bit is high, or -1.
// A scan walks the sets it must visit as
//
//	for s := v.Next(0); s >= 0; s = v.Next(s + 1) { ... }
//
// reading the bits as they are at each step, so a set cleared by the
// scan itself is not revisited.
func (v *SBV) Next(from int) int {
	w := from >> 6
	if from < 0 || w >= len(v.bits) {
		return -1
	}
	word := v.bits[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		w++
		if w == len(v.bits) {
			return -1
		}
		word = v.bits[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// Sets returns the number of sets covered.
func (v *SBV) Sets() int { return len(v.counts) }

// PopCount returns how many bits are high (sets a scan must visit).
func (v *SBV) PopCount() int {
	n := 0
	for _, w := range v.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// SkipRatio returns the fraction of sets a scan may skip (Fig. 10d).
func (v *SBV) SkipRatio() float64 {
	return 1 - float64(v.PopCount())/float64(len(v.counts))
}

// Bits returns the SRAM storage of the structure (one bit per set) for the
// area model.
func (v *SBV) Bits() int { return len(v.counts) }
