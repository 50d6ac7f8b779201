package mem

// Test-only accessors and helpers, kept out of the production build.

// PagesAllocated reports how many 4KB pages have been materialized.
func (b *Backing) PagesAllocated() int { return len(b.pages) }

// FreeLines reports the line free-list depth.
func (p *RequestPool) FreeLines() int { return len(p.lines) }
