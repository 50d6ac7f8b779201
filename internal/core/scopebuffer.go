package core

import "bulkpim/internal/mem"

// ScopeBuffer is the small cache-like structure of §IV-A. It is indexed by
// scope and holds entries for scopes that were recently scanned-and-flushed
// from the cache it is attached to. A hit means the cache can hold no line
// of that scope, so an arriving PIM op may be forwarded without a scan
// (Fig. 4a); a miss triggers a scan-and-flush followed by insertion
// (Fig. 4b). When a line of a scope is inserted into the cache, the scope's
// entry (if any) is erased, because the no-lines-present guarantee no
// longer holds.
type ScopeBuffer struct {
	sets, ways int
	entries    []sbEntry // sets*ways, set-major
	clock      uint64    // LRU timestamp source
}

type sbEntry struct {
	scope mem.ScopeID
	valid bool
	used  uint64
}

// NewScopeBuffer builds a scope buffer with the given geometry. The paper
// uses 64 sets x 4 ways at the LLC and 16 sets x 1 way at each L1
// (Table II).
func NewScopeBuffer(sets, ways int) *ScopeBuffer {
	if sets <= 0 || ways <= 0 {
		panic("core: scope buffer needs positive geometry")
	}
	return &ScopeBuffer{sets: sets, ways: ways, entries: make([]sbEntry, sets*ways)}
}

func (b *ScopeBuffer) set(s mem.ScopeID) []sbEntry {
	idx := int(uint64(s) % uint64(b.sets))
	return b.entries[idx*b.ways : (idx+1)*b.ways]
}

// Lookup reports whether scope s is present, refreshing its LRU age on hit.
func (b *ScopeBuffer) Lookup(s mem.ScopeID) bool {
	b.clock++
	for i := range b.set(s) {
		e := &b.set(s)[i]
		if e.valid && e.scope == s {
			e.used = b.clock
			return true
		}
	}
	return false
}

// Insert records scope s, evicting the LRU way of its set if needed
// ("the new scope simply overwrites an old scope according to a replacement
// policy with no additional action", §IV-A).
func (b *ScopeBuffer) Insert(s mem.ScopeID) {
	b.clock++
	set := b.set(s)
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.scope == s { // refresh existing entry
			e.used = b.clock
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	set[victim] = sbEntry{scope: s, valid: true, used: b.clock}
}

// Invalidate erases scope s (called when a line of s is inserted into the
// attached cache). It reports whether an entry was erased.
func (b *ScopeBuffer) Invalidate(s mem.ScopeID) bool {
	for i := range b.set(s) {
		e := &b.set(s)[i]
		if e.valid && e.scope == s {
			e.valid = false
			return true
		}
	}
	return false
}

// Len returns the number of valid entries.
func (b *ScopeBuffer) Len() int {
	n := 0
	for i := range b.entries {
		if b.entries[i].valid {
			n++
		}
	}
	return n
}

// Bits returns the SRAM storage the structure needs, for the area model:
// per entry, a scope tag (scopeIDBits minus the index bits), a valid bit,
// and ceil(log2(ways)) LRU bits.
func (b *ScopeBuffer) Bits(scopeIDBits int) int {
	idxBits := log2ceil(b.sets)
	tag := scopeIDBits - idxBits
	if tag < 1 {
		tag = 1
	}
	per := tag + 1 + log2ceil(b.ways)
	return b.sets * b.ways * per
}

func log2ceil(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
