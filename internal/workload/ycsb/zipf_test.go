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

// TestZetaCommittedMatchesSummation recomputes every committed zeta with
// the summation zeta runs — one pass of 32M terms, reading each committed
// n off the running sum, which equals a cold sum bit for bit — and
// compares bits.
func TestZetaCommittedMatchesSummation(t *testing.T) {
	t.Parallel()
	sum := 0.0
	i := uint64(0)
	for j, c := range committedZetaBits {
		if j > 0 && c.n <= committedZetaBits[j-1].n {
			t.Fatalf("committed zeta table not ascending at n=%d", c.n)
		}
		for i < c.n {
			i++
			sum += 1 / math.Pow(float64(i), committedTheta)
		}
		if got := math.Float64bits(sum); got != c.bits {
			t.Errorf("zeta(%d, %v) sums to %#016x, committed %#016x", c.n, committedTheta, got, c.bits)
		}
	}
}

// A committed zeta is served without summing, and a larger n resumes
// from the largest committed prefix below it.
func TestZetaCommittedSeedsCache(t *testing.T) {
	last := committedZetaBits[len(committedZetaBits)-1]
	if from, sum := zetaPrefix(last.n, committedTheta); from != last.n || math.Float64bits(sum) != last.bits {
		t.Fatalf("zeta(%d) not served from the committed table", last.n)
	}
	if from, _ := zetaPrefix(150_000, committedTheta); from < 99_900 {
		t.Fatalf("zeta(150000) resumes from %d, want >= 99900", from)
	}
}
