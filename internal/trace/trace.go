// Package trace is the simulator's debug tracing facility (the analogue
// of gem5's debug flags): components emit categorized, timestamped records
// to a Tracer, which filters by category and writes formatted lines.
// Tracing is optional and zero-cost when disabled.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"bulkpim/internal/sim"
)

// Category tags one subsystem's events.
type Category uint8

const (
	CatCPU Category = iota
	CatCache
	CatMC
	CatPIM
	CatNoC
	numCategories
)

func (c Category) String() string {
	switch c {
	case CatCPU:
		return "cpu"
	case CatCache:
		return "cache"
	case CatMC:
		return "mc"
	case CatPIM:
		return "pim"
	case CatNoC:
		return "noc"
	default:
		return "?"
	}
}

// ParseCategories converts a comma list ("cpu,pim" or "all") to a mask.
func ParseCategories(s string) (uint8, error) {
	if strings.TrimSpace(s) == "" {
		return 0, nil
	}
	var mask uint8
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "all":
			return 1<<numCategories - 1, nil
		case "cpu":
			mask |= 1 << CatCPU
		case "cache":
			mask |= 1 << CatCache
		case "mc":
			mask |= 1 << CatMC
		case "pim":
			mask |= 1 << CatPIM
		case "noc":
			mask |= 1 << CatNoC
		default:
			return 0, fmt.Errorf("trace: unknown category %q", part)
		}
	}
	return mask, nil
}

// Tracer collects records. The zero value is disabled; use New.
type Tracer struct {
	mu   sync.Mutex
	w    io.Writer
	mask uint8
	now  func() sim.Tick

	// Ring keeps the most recent records for post-mortem dumps when no
	// writer is attached.
	ring     []Record
	ringCap  int
	ringNext int
	count    uint64
}

// Record is one trace entry.
type Record struct {
	At   sim.Tick
	Cat  Category
	Unit string
	Msg  string
}

func (r Record) String() string {
	return fmt.Sprintf("%12d %-5s %-8s %s", r.At, r.Cat, r.Unit, r.Msg)
}

// New builds a tracer bound to a clock. w may be nil (ring buffer only).
func New(now func() sim.Tick, w io.Writer, mask uint8, ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = 1024
	}
	return &Tracer{w: w, mask: mask, now: now, ring: make([]Record, 0, ringCap), ringCap: ringCap}
}

// Enabled reports whether cat is traced (callers should guard expensive
// formatting with it).
func (t *Tracer) Enabled(cat Category) bool {
	return t != nil && t.mask&(1<<cat) != 0
}

// Emit records one event.
func (t *Tracer) Emit(cat Category, unit, format string, args ...interface{}) {
	if !t.Enabled(cat) {
		return
	}
	rec := Record{At: t.now(), Cat: cat, Unit: unit, Msg: fmt.Sprintf(format, args...)}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	if len(t.ring) < t.ringCap {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.ringNext] = rec
		t.ringNext = (t.ringNext + 1) % t.ringCap
	}
	if t.w != nil {
		fmt.Fprintln(t.w, rec)
	}
}

// Count returns the number of records emitted.
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Recent returns the ring contents, oldest first.
func (t *Tracer) Recent() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, len(t.ring))
	out = append(out, t.ring[t.ringNext:]...)
	out = append(out, t.ring[:t.ringNext]...)
	return out
}
