package ycsb

import (
	"math"
	"sync"
	"testing"
)

// coldZeta is the reference sum: every term from 1, nothing cached.
func coldZeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// forgetZeta drops theta's cached sums, so a test starts cold.
func forgetZeta(theta float64) {
	zetaCache.Lock()
	defer zetaCache.Unlock()
	delete(zetaCache.sums, theta)
}

// TestZetaResumesFromCachedPrefix: a zeta(n) that resumes from a cached
// shorter sum equals the cold sum bit for bit, and does resume from the
// longest prefix below n.
func TestZetaResumesFromCachedPrefix(t *testing.T) {
	const theta = 0.9137
	forgetZeta(theta)
	for _, tc := range []struct {
		n          uint64
		wantPrefix uint64 // longest cached n' <= n before the call
	}{
		{1000, 0}, {250, 0}, {5000, 1000}, {4999, 1000}, {5000, 5000},
		{20000, 5000}, {1, 0}, {2, 1}, {999, 250},
	} {
		if from, _ := zetaPrefix(tc.n, theta); from != tc.wantPrefix {
			t.Fatalf("zeta(%d): cached prefix %d, want %d", tc.n, from, tc.wantPrefix)
		}
		got, want := zeta(tc.n, theta), coldZeta(tc.n, theta)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("zeta(%d) = %v, cold sum %v", tc.n, got, want)
		}
	}
}

// TestZetaConcurrentCallersBitIdentical: callers racing on overlapping
// n (run under -race in CI) all get the cold sums, whichever prefix each
// happened to resume from.
func TestZetaConcurrentCallersBitIdentical(t *testing.T) {
	const theta = 0.8711
	forgetZeta(theta)
	ns := []uint64{3000, 700, 12000, 700, 5000, 12001, 1, 9000}
	want := make(map[uint64]uint64, len(ns))
	for _, n := range ns {
		want[n] = math.Float64bits(coldZeta(n, theta))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(ns))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range ns {
				n := ns[(i+g)%len(ns)]
				if got := math.Float64bits(zeta(n, theta)); got != want[n] {
					errs <- "mismatch"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if len(errs) > 0 {
		t.Fatalf("%d concurrent zeta calls differ from the cold sum", len(errs))
	}
}
