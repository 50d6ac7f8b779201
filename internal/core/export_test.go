package core

// Test-only accessors and helpers, kept out of the production build.

// Capacity returns sets*ways.
func (b *ScopeBuffer) Capacity() int { return b.sets * b.ways }
