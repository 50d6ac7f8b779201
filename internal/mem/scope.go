package mem

// ScopeID identifies one PIM scope. Scopes partition the PIM memory region
// into fixed, equal-sized, non-overlapping address ranges (paper §III: "the
// PIM memory is partitioned into a fixed set of scopes, each with a fixed
// address range"). NoScope marks addresses outside the PIM region.
type ScopeID int32

// NoScope is returned for addresses that do not belong to any PIM scope.
const NoScope ScopeID = -1

// ScopeMap translates addresses to scopes. The PIM region is a single
// contiguous range of ScopeCount scopes of ScopeSize bytes starting at
// Base; this mirrors PIMDB's 2MB-huge-page scopes identified by address
// ([25], paper §III).
type ScopeMap struct {
	Base       Addr   // first byte of the PIM region; multiple of ScopeSize
	ScopeSize  uint64 // bytes per scope (power of two)
	ScopeCount int    // number of scopes
	shift      uint
}

// DefaultScopeSize is the paper's scope granularity: a 2MB huge page.
const DefaultScopeSize = 2 << 20

// DefaultPIMBase places the PIM region at 4GB, leaving the low addresses
// for regular (non-PIM) memory.
const DefaultPIMBase Addr = 4 << 30

// NewScopeMap builds a scope map. scopeSize must be a power of two and
// base must be scope-aligned.
func NewScopeMap(base Addr, scopeSize uint64, count int) *ScopeMap {
	if scopeSize == 0 || scopeSize&(scopeSize-1) != 0 {
		panic("mem: scope size must be a power of two")
	}
	if uint64(base)%scopeSize != 0 {
		panic("mem: PIM base must be scope aligned")
	}
	shift := uint(0)
	for s := scopeSize; s > 1; s >>= 1 {
		shift++
	}
	return &ScopeMap{Base: base, ScopeSize: scopeSize, ScopeCount: count, shift: shift}
}

// ScopeOf returns the scope containing a, or NoScope.
func (m *ScopeMap) ScopeOf(a Addr) ScopeID {
	if m == nil || a < m.Base {
		return NoScope
	}
	idx := uint64(a-m.Base) >> m.shift
	if idx >= uint64(m.ScopeCount) {
		return NoScope
	}
	return ScopeID(idx)
}

// ScopeBase returns the first address of scope s.
func (m *ScopeMap) ScopeBase(s ScopeID) Addr {
	return m.Base + Addr(uint64(s)<<m.shift)
}

// End returns the first address past the PIM region.
func (m *ScopeMap) End() Addr {
	return m.Base + Addr(uint64(m.ScopeCount)*m.ScopeSize)
}
