package mem

// LineTable is a small open-addressed hash table from line addresses to
// non-nil pointers: the miss-status tables of the caches and the memory
// controller's per-line chain tails. It probes linearly and deletes by
// backward shift (no tombstones), so lookups stay short however long the
// table churns, and once grown to its working size it never allocates.
//
// Iterate with the slot API, which needs no closure:
//
//	for i := 0; i < t.Slots(); i++ {
//		if k, v := t.Slot(i); v != nil { ... }
//	}
//
// Slot order is unspecified; callers must not depend on it.
type LineTable[V any] struct {
	keys []LineAddr
	vals []*V // nil marks an empty slot
	n    int
	mask uint64
}

// lineTableMinSlots is the initial capacity (a power of two).
const lineTableMinSlots = 16

// NewLineTable returns an empty table.
func NewLineTable[V any]() *LineTable[V] {
	t := &LineTable[V]{}
	t.alloc(lineTableMinSlots)
	return t
}

func (t *LineTable[V]) alloc(slots int) {
	t.keys = make([]LineAddr, slots)
	t.vals = make([]*V, slots)
	t.mask = uint64(slots - 1)
}

// home is the preferred slot of key k: Fibonacci hashing of the line
// index, so consecutive lines spread across the table.
func (t *LineTable[V]) home(k LineAddr) uint64 {
	return (k.Index() * 0x9E3779B97F4A7C15 >> 32) & t.mask
}

// Len returns the number of entries.
func (t *LineTable[V]) Len() int { return t.n }

// Get returns the value stored for k, or nil.
func (t *LineTable[V]) Get(k LineAddr) *V {
	for i := t.home(k); ; i = (i + 1) & t.mask {
		v := t.vals[i]
		if v == nil {
			return nil
		}
		if t.keys[i] == k {
			return v
		}
	}
}

// Set stores v (which must be non-nil) for k, replacing any previous
// value.
func (t *LineTable[V]) Set(k LineAddr, v *V) {
	if v == nil {
		panic("mem: LineTable.Set with nil value")
	}
	if 4*(t.n+1) > 3*len(t.vals) {
		t.grow()
	}
	i := t.home(k)
	for ; t.vals[i] != nil; i = (i + 1) & t.mask {
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
	}
	t.keys[i], t.vals[i] = k, v
	t.n++
}

// Delete removes k if present. Later members of k's probe run shift back
// into the hole, so every remaining key stays reachable from its home
// slot without a tombstone.
func (t *LineTable[V]) Delete(k LineAddr) {
	i := t.home(k)
	for ; ; i = (i + 1) & t.mask {
		if t.vals[i] == nil {
			return
		}
		if t.keys[i] == k {
			break
		}
	}
	t.n--
	for j := (i + 1) & t.mask; t.vals[j] != nil; j = (j + 1) & t.mask {
		// The entry at j may fill hole i unless its home lies cyclically
		// in (i, j]: then moving it before its home would hide it.
		if (j-t.home(t.keys[j]))&t.mask >= (j-i)&t.mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = 0, nil
}

func (t *LineTable[V]) grow() {
	keys, vals := t.keys, t.vals
	t.alloc(2 * len(vals))
	for i, v := range vals {
		if v == nil {
			continue
		}
		j := t.home(keys[i])
		for t.vals[j] != nil {
			j = (j + 1) & t.mask
		}
		t.keys[j], t.vals[j] = keys[i], v
	}
}

// Slots returns the slot count, the bound for Slot's index.
func (t *LineTable[V]) Slots() int { return len(t.vals) }

// Slot returns the entry in slot i; v is nil for an empty slot. The table
// must not be modified while a caller walks the slots.
func (t *LineTable[V]) Slot(i int) (k LineAddr, v *V) { return t.keys[i], t.vals[i] }
