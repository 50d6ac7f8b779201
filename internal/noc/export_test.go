package noc

import "bulkpim/internal/sim"

// Test-only accessors and helpers, kept out of the production build.

// Backlog reports how far ahead of now the link's serialization point
// is: the congestion a sender would see.
func (l *Link) Backlog() sim.Tick {
	if l.nextFree > l.k.Now() {
		return l.nextFree - l.k.Now()
	}
	return 0
}
