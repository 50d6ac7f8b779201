package noc

import (
	"testing"

	"bulkpim/internal/sim"
)

func TestBacklogGrowsAndDrains(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "t", 5, 0, 10, sim.NewRand(1))
	if l.Backlog() != 0 {
		t.Fatal("fresh link has backlog")
	}
	for i := 0; i < 4; i++ {
		l.SendCtx(call, func() {})
	}
	if got := l.Backlog(); got != 40 {
		t.Fatalf("backlog = %d, want 40 (4 msgs x 10 cycles)", got)
	}
	if _, err := k.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if got := l.Backlog(); got != 15 {
		t.Fatalf("backlog after 25 cycles = %d, want 15", got)
	}
	// Past the serialization horizon the backlog is zero.
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunUntil(40); err != nil {
		t.Fatal(err)
	}
	if l.Backlog() != 0 {
		t.Fatalf("backlog at t=40 is %d, want 0", l.Backlog())
	}
	if l.BusyCycles != 40 {
		t.Fatalf("busy cycles = %d, want 40", l.BusyCycles)
	}
}

func TestMixedOrderedAndJittered(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "t", 4, 16, 1, sim.NewRand(9))
	var got []string
	// Ordered messages must stay ordered relative to each other even when
	// interleaved with jittered sends.
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			i := i
			l.SendOrderedCtx(call, func() { got = append(got, "o") })
			_ = i
		} else {
			l.SendCtx(call, func() { got = append(got, "j") })
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20", len(got))
	}
}
