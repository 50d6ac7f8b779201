package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []Tick
	k.Schedule(30, func() { got = append(got, 30) })
	k.Schedule(10, func() { got = append(got, 10) })
	k.Schedule(20, func() { got = append(got, 20) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 30 {
		t.Fatalf("end = %d, want 30", end)
	}
	want := []Tick{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestKernelFIFOWithinTick(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-tick order %v not FIFO", got)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var trace []Tick
	k.Schedule(1, func() {
		trace = append(trace, k.Now())
		k.Schedule(4, func() { trace = append(trace, k.Now()) })
		k.Schedule(0, func() { trace = append(trace, k.Now()) })
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Tick{1, 1, 5}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestKernelZeroDelayRunsAfterQueuedSameTick(t *testing.T) {
	k := NewKernel()
	var got []string
	k.Schedule(2, func() { got = append(got, "a") })
	k.Schedule(2, func() {
		got = append(got, "b")
		k.Schedule(0, func() { got = append(got, "d") })
	})
	k.Schedule(2, func() { got = append(got, "c") })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "abcd"
	var s string
	for _, g := range got {
		s += g
	}
	if s != want {
		t.Fatalf("order %q, want %q", s, want)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.ScheduleAt(5, func() {})
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventLimit(t *testing.T) {
	k := NewKernel()
	k.EventLimit = 100
	var tick func()
	tick = func() { k.Schedule(1, tick) }
	k.Schedule(1, tick)
	if _, err := k.Run(); err != ErrEventLimit {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	for i := Tick(1); i <= 10; i++ {
		k.Schedule(i*10, func() { fired++ })
	}
	if _, err := k.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if k.Now() != 50 {
		t.Fatalf("now = %d, want 50", k.Now())
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(1, func() { fired++; k.Stop() })
	k.Schedule(2, func() { fired++ })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (stopped)", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and ties fire in schedule order.
func TestKernelOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel()
		type fire struct {
			at  Tick
			seq int
		}
		var fires []fire
		for i, d := range delays {
			i, d := i, d
			k.Schedule(Tick(d%512), func() { fires = append(fires, fire{k.Now(), i}) })
		}
		if _, err := k.Run(); err != nil {
			return false
		}
		seen := make(map[Tick][]int)
		var last Tick
		for _, f := range fires {
			if f.at < last {
				return false
			}
			last = f.at
			seen[f.at] = append(seen[f.at], f.seq)
		}
		for _, seqs := range seen {
			for i := 1; i < len(seqs); i++ {
				if seqs[i] < seqs[i-1] {
					return false
				}
			}
		}
		return len(fires) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds produced same first value")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		if v := r.Uint64n(3); v >= 3 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
	}
}

func TestRandForkIndependent(t *testing.T) {
	r := NewRand(9)
	f := r.Fork()
	if f.Uint64() == r.Uint64() {
		t.Fatal("fork mirrors parent")
	}
}

// A far-future heap event and bucket events for the same tick: the heap
// event was scheduled first, so it fires first, and a zero-delay event it
// schedules fires after the bucket's events.
func TestHeapEventsFireBeforeSameTickBucket(t *testing.T) {
	k := NewKernel()
	var got []string
	at := Tick(wheelSize + 5)
	k.ScheduleAt(at, func() {
		got = append(got, "heap")
		k.Schedule(0, func() { got = append(got, "cascade") })
	})
	k.ScheduleAt(10, func() {
		k.ScheduleAt(at, func() { got = append(got, "bucket1") })
		k.ScheduleAt(at, func() { got = append(got, "bucket2") })
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s := strings.Join(got, ","); s != "heap,bucket1,bucket2,cascade" {
		t.Fatalf("order %s, want heap,bucket1,bucket2,cascade", s)
	}
	if k.Now() != at {
		t.Fatalf("now = %d, want %d", k.Now(), at)
	}
}

// A run stopped mid-tick leaves the tick's remaining events pending.
// RunUntil with a later deadline fires them in order; one with an earlier
// deadline moves the clock back, and events scheduled then fire first.
func TestRunUntilAfterMidTickStop(t *testing.T) {
	k := NewKernel()
	var got []string
	var at []Tick
	rec := func(name string) func() {
		return func() { got, at = append(got, name), append(at, k.Now()) }
	}
	k.ScheduleAt(10, func() {
		rec("a")()
		k.Stop()
		// Lands in bucket 6 of the wheel, which the backward move below
		// makes the current bucket.
		k.ScheduleAt(6+wheelSize, rec("far"))
	})
	k.ScheduleAt(10, rec("b"))
	k.ScheduleAt(10, rec("c"))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := k.Pending(); n != 3 {
		t.Fatalf("pending after stop = %d, want 3", n)
	}
	if _, err := k.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 6 || k.Pending() != 3 {
		t.Fatalf("after RunUntil(6): now %d pending %d, want 6 and 3", k.Now(), k.Pending())
	}
	k.Schedule(0, rec("now"))
	k.Schedule(1, rec("next"))
	if n := k.Pending(); n != 5 {
		t.Fatalf("pending = %d, want 5", n)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "now", "next", "b", "c", "far"}
	wantAt := []Tick{10, 6, 7, 10, 10, 6 + wheelSize}
	for i := range want {
		if i >= len(got) || got[i] != want[i] || at[i] != wantAt[i] {
			t.Fatalf("fired %v at %v, want %v at %v", got, at, want, wantAt)
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after drain", k.Pending())
	}

	// A stop followed by RunUntil at or past the stopped tick just
	// finishes the tick.
	k = NewKernel()
	got = got[:0]
	k.ScheduleAt(4, func() { got = append(got, "x"); k.Stop() })
	k.ScheduleAt(4, func() { got = append(got, "y") })
	k.ScheduleAt(9, func() { got = append(got, "z") })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if s := strings.Join(got, ","); s != "x,y" || k.Now() != 5 || k.Pending() != 1 {
		t.Fatalf("fired %s, now %d, pending %d; want x,y, 5, 1", s, k.Now(), k.Pending())
	}
}

// Pending counts the current tick's unfired events, future buckets and
// the heap.
func TestPendingCounts(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	k.Schedule(0, fn)
	k.Schedule(3, fn)
	k.Schedule(3, fn)
	k.Schedule(2*wheelSize, fn)
	if n := k.Pending(); n != 4 {
		t.Fatalf("pending = %d, want 4", n)
	}
	var during int
	k.ScheduleAt(3, func() {
		k.Schedule(0, fn)
		during = k.Pending()
	})
	if _, err := k.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	// At the third tick-3 event: the cascade it queued plus the heap event.
	if during != 2 {
		t.Fatalf("pending inside tick = %d, want 2", during)
	}
	if n := k.Pending(); n != 1 {
		t.Fatalf("pending = %d, want 1", n)
	}
}

// A steady same-tick cascade fires in place without allocating.
func TestSameTickCascadeAllocationFree(t *testing.T) {
	k := NewKernel()
	left := 0
	var step func(any)
	step = func(any) {
		if left > 0 {
			left--
			k.ScheduleCtx(0, step, nil)
		}
	}
	run := func() {
		left = 64
		k.ScheduleCtx(1, step, nil)
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*wheelSize; i++ {
		run() // grow every bucket the cascade visits
	}
	if avg := testing.AllocsPerRun(500, run); avg != 0 {
		t.Fatalf("same-tick cascade allocates %.1f per run, want 0", avg)
	}
}
