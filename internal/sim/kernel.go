// Package sim provides a deterministic discrete-event simulation kernel.
//
// It is the substrate every timed component of the bulkpim system is built
// on: caches, the on-chip network, the memory controller, the PIM module and
// the CPU cores all schedule work as events on a single Kernel. The kernel
// is single-threaded and fully deterministic: two runs with the same seed
// and the same schedule order produce identical event interleavings.
package sim

import (
	"fmt"
	"math/bits"
)

// Tick is simulated time, measured in CPU clock cycles.
type Tick uint64

// fifoEntry is a callback plus its context, 24 bytes. Carrying the context
// separately lets components schedule package-level functions with a
// pointer argument instead of allocating a fresh closure per event — the
// profile showed per-request closures as a top GC producer.
type fifoEntry struct {
	fn  func(any)
	ctx any
}

// event is a far-future (beyond the wheel horizon) scheduled callback held
// in the overflow heap. Events with equal time fire in schedule order
// (FIFO by sequence number), which keeps runs deterministic.
type event struct {
	when Tick
	seq  uint64
	fn   func(any)
	ctx  any
}

const (
	// wheelBits sizes the timing wheel. Component delays (cache hits, NoC
	// hops, DRAM timings) are overwhelmingly < 1024 ticks, so nearly every
	// event lands in a bucket and never touches the heap.
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// Kernel is a discrete-event scheduler. The zero value is not usable; use
// NewKernel.
//
// The pending set is split two ways, cheapest structure first:
//
//   - a timing wheel of wheelSize per-tick buckets with an occupancy
//     bitmap. Scheduling within the horizon is an append to
//     wheel[when%wheelSize]. The current tick's bucket is also its FIFO:
//     it fires in place by index, and zero-delay events scheduled while
//     the tick executes append to it. No future event can land there,
//     because 0 < when-now < wheelSize maps to every bucket but the
//     current one. Finding the next non-empty tick is a bitmap scan, a
//     handful of word tests for the usual near-future event.
//   - a 4-ary min-heap over a pooled, index-stable arena for the rare
//     events scheduled >= wheelSize ticks ahead (refresh timers, watchdog
//     deadlines). Heap events never migrate early: entering their tick
//     merges them in front of the tick's bucket through a reused spill
//     slice.
//
// Determinism semantics are unchanged from the original binary-heap
// kernel: events fire in (time, then schedule sequence) order. Bucket
// appends preserve schedule order, and a heap event always precedes bucket
// events of the same tick because it was necessarily scheduled earlier
// (when it was queued the tick was >= wheelSize away; bucket entries for
// that tick were queued later, once the tick was inside the horizon).
type Kernel struct {
	now     Tick
	seq     uint64
	stopped bool

	// wheel holds per-tick buckets, horizon wheelSize; occ and wheelCount
	// cover the future buckets only, not the one of the current tick.
	wheel      [wheelSize][]fifoEntry
	occ        [wheelSize / 64]uint64
	wheelCount int
	fhead      int         // next unfired entry of the current tick's bucket
	spill      []fifoEntry // reused buffer for merging heap events into a bucket

	arena []event  // index-stable pooled storage for far-future events
	free  []uint32 // recycled arena slots
	heap  []uint32 // 4-ary min-heap of arena indices

	// EventLimit, when non-zero, aborts Run with ErrEventLimit after that
	// many events have fired. It is a watchdog against scheduling bugs
	// (livelock / runaway retry loops).
	EventLimit uint64
	fired      uint64
}

// ErrEventLimit is returned by Run when Kernel.EventLimit is exceeded.
var ErrEventLimit = fmt.Errorf("sim: event limit exceeded")

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	k := &Kernel{
		arena: make([]event, 0, 64),
		heap:  make([]uint32, 0, 64),
	}
	// Seed every bucket with capacity from one contiguous backing array so
	// a bucket's first events don't each pay a small allocation; a bucket
	// that outgrows its seed capacity reallocates once and keeps the larger
	// array across wheel rotations.
	backing := make([]fifoEntry, wheelSize*bucketSeedCap)
	for i := range k.wheel {
		k.wheel[i] = backing[i*bucketSeedCap : i*bucketSeedCap : (i+1)*bucketSeedCap]
	}
	return k
}

// bucketSeedCap is the initial per-bucket capacity carved from the shared
// backing array in NewKernel.
const bucketSeedCap = 4

// Now returns the current simulated time.
func (k *Kernel) Now() Tick { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// ScheduleCtx runs fn(ctx) after delay cycles (delay 0 means "later this
// cycle", after already-queued events for the current tick). Passing a
// long-lived fn (a package-level function or a field initialized once)
// with a per-event ctx schedules without allocating, where a capturing
// closure would allocate per event.
func (k *Kernel) ScheduleCtx(delay Tick, fn func(any), ctx any) {
	k.ScheduleAtCtx(k.now+delay, fn, ctx)
}

// ScheduleAtCtx runs fn(ctx) at absolute time when. Scheduling in the past
// is a programming error and panics.
func (k *Kernel) ScheduleAtCtx(when Tick, fn func(any), ctx any) {
	if when < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, k.now))
	}
	if d := when - k.now; d < wheelSize {
		// d == 0 appends to the current tick's bucket, which only ever
		// holds current-tick events; it is not counted as a future bucket.
		b := uint32(when) & wheelMask
		k.wheel[b] = append(k.wheel[b], fifoEntry{fn: fn, ctx: ctx})
		if d != 0 {
			k.occ[b>>6] |= 1 << (b & 63)
			k.wheelCount++
		}
		return
	}
	k.pushEvent(when, fn, ctx)
}

// pushEvent queues fn(ctx) on the far-future heap with a fresh sequence
// number.
func (k *Kernel) pushEvent(when Tick, fn func(any), ctx any) {
	k.seq++
	idx := k.alloc()
	k.arena[idx] = event{when: when, seq: k.seq, fn: fn, ctx: ctx}
	k.push(idx)
}

// alloc returns a free arena slot, recycling fired events' slots before
// growing the arena.
func (k *Kernel) alloc() uint32 {
	if n := len(k.free); n > 0 {
		idx := k.free[n-1]
		k.free = k.free[:n-1]
		return idx
	}
	k.arena = append(k.arena, event{})
	return uint32(len(k.arena) - 1)
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// nextPending returns the earliest pending tick across wheel and heap.
func (k *Kernel) nextPending() (Tick, bool) {
	t, ok := k.nextWheelTick()
	if len(k.heap) > 0 {
		if ht := k.arena[k.heap[0]].when; !ok || ht < t {
			return ht, true
		}
	}
	return t, ok
}

// nextWheelTick scans the occupancy bitmap circularly from the bucket
// after now for the first non-empty bucket and reconstructs its tick.
func (k *Kernel) nextWheelTick() (Tick, bool) {
	if k.wheelCount == 0 {
		return 0, false
	}
	start := uint32(k.now+1) & wheelMask
	w := int(start >> 6)
	if rem := k.occ[w] &^ (1<<(start&63) - 1); rem != 0 {
		return k.bucketTick(uint32(w<<6 + bits.TrailingZeros64(rem))), true
	}
	// Wrap through the remaining words; revisiting word w last picks up
	// bits below start (the farthest-future buckets).
	for i := 1; i <= len(k.occ); i++ {
		idx := (w + i) & (len(k.occ) - 1)
		if k.occ[idx] != 0 {
			return k.bucketTick(uint32(idx<<6 + bits.TrailingZeros64(k.occ[idx]))), true
		}
	}
	panic("sim: wheel count positive but occupancy bitmap empty")
}

// bucketTick maps a bucket index to its absolute tick: the unique time
// congruent to b mod wheelSize in (now, now+wheelSize].
func (k *Kernel) bucketTick(b uint32) Tick {
	t := k.now&^Tick(wheelMask) | Tick(b)
	if t <= k.now {
		t += wheelSize
	}
	return t
}

// Run executes events until the queue drains, Stop is called, or the event
// limit is hit. It returns the time of the last executed event.
func (k *Kernel) Run() (Tick, error) {
	k.stopped = false
	for !k.stopped {
		if !k.tickPending() {
			t, ok := k.nextPending()
			if !ok {
				break
			}
			k.enterTick(t)
		}
		if err := k.fire(); err != nil {
			return k.now, err
		}
	}
	return k.now, nil
}

// RunUntil executes events with time <= deadline, then advances the clock
// to the deadline (time passes even when the queue drains early).
func (k *Kernel) RunUntil(deadline Tick) (Tick, error) {
	k.stopped = false
	for !k.stopped {
		if !k.tickPending() {
			t, ok := k.nextPending()
			if !ok {
				break
			}
			if t > deadline {
				k.setClock(deadline)
				return k.now, nil
			}
			k.enterTick(t)
		}
		if k.now > deadline {
			// Only reachable when a stopped run left same-tick events
			// pending and the deadline is before their tick. Push them back
			// to the heap: the clock moves to the earlier deadline, so
			// later scheduling may legally interleave ahead of them. Fresh
			// sequence numbers are order-preserving: the heap holds no
			// events for this tick (entering the tick drained them), and
			// any event subsequently scheduled for it is younger still.
			b := uint32(k.now) & wheelMask
			k.spillToHeap(b, k.fhead, k.now)
			k.fhead = 0
			k.setClock(deadline)
			return k.now, nil
		}
		if err := k.fire(); err != nil {
			return k.now, err
		}
	}
	if !k.stopped && k.now < deadline {
		k.now = deadline
	}
	return k.now, nil
}

// tickPending reports whether the current tick's bucket has unfired
// events. When it has none, the bucket is truncated for reuse: the fired
// entries are overwritten by the wheel's next rotation rather than cleared
// one by one.
func (k *Kernel) tickPending() bool {
	b := uint32(k.now) & wheelMask
	if k.fhead < len(k.wheel[b]) {
		return true
	}
	k.wheel[b] = k.wheel[b][:0]
	k.fhead = 0
	return false
}

// setClock moves the clock to t, which no pending event precedes. Moving
// forward, t's bucket is necessarily empty. Moving backward past a stopped
// tick, it may hold events of tick t+wheelSize; they move to the heap so
// the bucket again holds only current-tick events.
func (k *Kernel) setClock(t Tick) {
	k.now = t
	b := uint32(t) & wheelMask
	if n := len(k.wheel[b]); n > 0 {
		k.occ[b>>6] &^= 1 << (b & 63)
		k.wheelCount -= n
		k.spillToHeap(b, 0, t+wheelSize)
	}
}

// spillToHeap moves bucket b's entries from index from on to the heap at
// tick when, in order, and empties the bucket.
func (k *Kernel) spillToHeap(b uint32, from int, when Tick) {
	bkt := k.wheel[b]
	for _, e := range bkt[from:] {
		k.pushEvent(when, e.fn, e.ctx)
	}
	clear(bkt)
	k.wheel[b] = bkt[:0]
}

// enterTick advances the clock to tick t, whose bucket becomes the current
// one. Far-future heap events for t — all older than any bucket entry for
// t — are merged in front of the bucket in (time, seq) pop order: the
// spill slice collects them plus the bucket and then replaces it, and the
// old bucket array becomes the next spill.
func (k *Kernel) enterTick(t Tick) {
	k.now = t
	b := uint32(t) & wheelMask
	bkt := k.wheel[b]
	if len(bkt) > 0 {
		k.occ[b>>6] &^= 1 << (b & 63)
		k.wheelCount -= len(bkt)
	}
	if len(k.heap) == 0 || k.arena[k.heap[0]].when != t {
		return
	}
	sp := k.spill[:0]
	for len(k.heap) > 0 && k.arena[k.heap[0]].when == t {
		idx := k.pop()
		ev := &k.arena[idx]
		sp = append(sp, fifoEntry{fn: ev.fn, ctx: ev.ctx})
		ev.fn, ev.ctx = nil, nil
		k.free = append(k.free, idx)
	}
	k.wheel[b] = append(sp, bkt...)
	k.spill = bkt[:0]
}

// fire executes the next event of the current tick's bucket in place.
func (k *Kernel) fire() error {
	e := k.wheel[uint32(k.now)&wheelMask][k.fhead]
	k.fhead++
	k.fired++
	if k.EventLimit != 0 && k.fired > k.EventLimit {
		return ErrEventLimit
	}
	e.fn(e.ctx)
	return nil
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int {
	return len(k.heap) + k.wheelCount + len(k.wheel[uint32(k.now)&wheelMask]) - k.fhead
}

// less orders arena indices by (time, sequence).
func (k *Kernel) less(a, b uint32) bool {
	ea, eb := &k.arena[a], &k.arena[b]
	if ea.when != eb.when {
		return ea.when < eb.when
	}
	return ea.seq < eb.seq
}

func (k *Kernel) push(idx uint32) {
	k.heap = append(k.heap, idx)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.less(k.heap[i], k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

func (k *Kernel) pop() uint32 {
	top := k.heap[0]
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap = k.heap[:last]
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		end := first + 4
		if end > last {
			end = last
		}
		smallest := i
		for c := first; c < end; c++ {
			if k.less(k.heap[c], k.heap[smallest]) {
				smallest = c
			}
		}
		if smallest == i {
			break
		}
		k.heap[i], k.heap[smallest] = k.heap[smallest], k.heap[i]
		i = smallest
	}
	return top
}
