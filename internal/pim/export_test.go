package pim

import "bulkpim/internal/mem"

// Test-only accessors and helpers, kept out of the production build.

// ArrayBytes returns the storage of one array.
func (g Geometry) ArrayBytes() int { return g.Rows * mem.LineSize }

// ScopeBusy reports whether scope s is executing an op right now (the
// memory array is occupied, §III). Scopes the module has never seen,
// NoScope included, are idle.
func (m *Module) ScopeBusy(s mem.ScopeID) bool {
	i := int(s) + 1
	return i >= 0 && i < len(m.scopes) && m.scopes[i].running != nil
}
