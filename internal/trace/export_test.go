package trace

import (
	"fmt"
	"io"
)

// Test-only accessors and helpers, kept out of the production build.

// Dump writes the ring to w, oldest first.
func (t *Tracer) Dump(w io.Writer) {
	for _, r := range t.Recent() {
		fmt.Fprintln(w, r)
	}
}
