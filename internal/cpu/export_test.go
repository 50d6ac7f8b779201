package cpu

// Test-only accessors and helpers, kept out of the production build.

// Waiting reports how many participants are blocked.
func (b *Barrier) Waiting() int { return b.arrived }
