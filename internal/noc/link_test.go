package noc

import (
	"testing"

	"bulkpim/internal/sim"
)

// call runs a closure event: the tests schedule func() literals
// through the (fn, ctx) event shape with the closure as the ctx.
func call(ctx any) { ctx.(func())() }

func TestLinkLatency(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "t", 10, 0, 1, sim.NewRand(1))
	var at sim.Tick
	l.SendCtx(call, func() { at = k.Now() })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10 {
		t.Fatalf("delivered at %d, want 10", at)
	}
}

func TestLinkBandwidthSerializes(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "t", 5, 0, 4, sim.NewRand(1))
	var times []sim.Tick
	for i := 0; i < 3; i++ {
		l.SendCtx(call, func() { times = append(times, k.Now()) })
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// starts at 0,4,8; each +5 latency
	want := []sim.Tick{5, 9, 13}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times %v, want %v", times, want)
		}
	}
	if l.Delivered != 3 {
		t.Fatal("delivered count wrong")
	}
}

func TestLinkJitterCanReorder(t *testing.T) {
	// With jitter, some pair of back-to-back messages must eventually be
	// delivered out of order.
	reordered := false
	for seed := uint64(1); seed < 50 && !reordered; seed++ {
		k := sim.NewKernel()
		l := NewLink(k, "t", 4, 8, 1, sim.NewRand(seed))
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			l.SendCtx(call, func() { order = append(order, i) })
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				reordered = true
			}
		}
	}
	if !reordered {
		t.Fatal("jittered link never reordered messages")
	}
}

func TestSendOrderedNeverReorders(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "t", 4, 8, 1, sim.NewRand(3))
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		l.SendOrderedCtx(call, func() { order = append(order, i) })
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("ordered link reordered: %v", order[:i+1])
		}
	}
}

func TestLinkDeterministic(t *testing.T) {
	run := func() []sim.Tick {
		k := sim.NewKernel()
		l := NewLink(k, "t", 4, 8, 2, sim.NewRand(99))
		var times []sim.Tick
		for i := 0; i < 20; i++ {
			l.SendCtx(call, func() { times = append(times, k.Now()) })
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("link nondeterministic across identical runs")
		}
	}
}
