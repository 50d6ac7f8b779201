// Package ycsb implements the paper's YCSB short-range-scan workload
// (Table III): 95% scans / 5% inserts over a PIMDB-resident key-value
// table, scan base records zipfian-distributed, scan lengths uniform in
// [1,100], scopes partitioned evenly across worker threads (§VI-B).
package ycsb

import (
	"math"
	"slices"
	"sort"
	"sync"

	"bulkpim/internal/sim"
)

// Zipf is the standard YCSB zipfian generator (Gray et al.): item 0 is the
// most popular, with skew theta (YCSB default 0.99).
type Zipf struct {
	items      uint64
	theta      float64
	alpha      float64
	zetan      float64
	zeta2theta float64
	eta        float64
}

// zetaCache memoizes zeta(n, theta) across workload builds (the harness
// builds the same record counts for every model): for each theta, the
// sums computed so far, ordered by n. A new n resumes from the longest
// cached prefix below it. The terms are still added one by one from 1 to
// n in the same order, so a resumed sum is bit-identical to a cold one.
// It starts out holding the committed sums below.
var zetaCache = struct {
	sync.Mutex
	sums map[float64][]zetaSum
}{sums: map[float64][]zetaSum{committedTheta: committedZeta()}}

type zetaSum struct {
	n   uint64
	sum float64
}

// committedTheta is the skew every shipped plan uses (DefaultParams).
const committedTheta = 0.99

// committedZetaBits holds the float64 bit patterns of zeta(n, 0.99), as
// the summation in zeta computes them, for every n a shipped plan builds:
// 2 (zeta2theta) and zipfItems of each record count in the scales'
// sweeps, 100K-32M records less MaxScanRecords. A cold build of those
// generators would otherwise sum up to 32M terms.
var committedZetaBits = []struct{ n, bits uint64 }{
	{2, 0x3ff80e3eb6202786},
	{99_900, 0x40298def30706468},
	{249_900, 0x402b9f1440a7bcae},
	{499_900, 0x402d327320c80879},
	{999_900, 0x402ec8917ae7912f},
	{1_999_900, 0x403030bdc4f7abca},
	{3_999_900, 0x4030fe9cfcd0eeda},
	{7_999_900, 0x4031cde9d7dccb89},
	{15_999_900, 0x40329ea758f51a19},
	{23_999_900, 0x4033196e4d4cc79c},
	{31_999_900, 0x403370d84cd53b39},
}

// committedZeta returns the committed sums in zetaCache's form, ordered
// by n.
func committedZeta() []zetaSum {
	out := make([]zetaSum, len(committedZetaBits))
	for i, c := range committedZetaBits {
		out[i] = zetaSum{c.n, math.Float64frombits(c.bits)}
	}
	return out
}

// zetaPrefix returns the largest cached n' <= n for theta with its sum,
// or 0 and 0 when none is cached.
func zetaPrefix(n uint64, theta float64) (uint64, float64) {
	zetaCache.Lock()
	defer zetaCache.Unlock()
	sums := zetaCache.sums[theta]
	i := sort.Search(len(sums), func(i int) bool { return sums[i].n > n })
	if i == 0 {
		return 0, 0
	}
	return sums[i-1].n, sums[i-1].sum
}

// zetaStore caches sum as zeta(n, theta), keeping the list ordered.
func zetaStore(n uint64, theta float64, sum float64) {
	zetaCache.Lock()
	defer zetaCache.Unlock()
	if zetaCache.sums == nil {
		zetaCache.sums = make(map[float64][]zetaSum)
	}
	sums := zetaCache.sums[theta]
	i := sort.Search(len(sums), func(i int) bool { return sums[i].n >= n })
	if i < len(sums) && sums[i].n == n {
		return // a concurrent caller stored the same (identical) sum
	}
	zetaCache.sums[theta] = slices.Insert(sums, i, zetaSum{n, sum})
}

// zeta returns sum_{i=1..n} 1/i^theta. The sum is computed outside the
// cache lock, so concurrent callers never wait on each other's sums.
func zeta(n uint64, theta float64) float64 {
	from, sum := zetaPrefix(n, theta)
	if from == n {
		return sum
	}
	for i := from + 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	zetaStore(n, theta, sum)
	return sum
}

// NewZipf builds a generator over [0, items).
func NewZipf(items uint64, theta float64) *Zipf {
	if items == 0 {
		panic("ycsb: zipf over zero items")
	}
	z := &Zipf{items: items, theta: theta}
	z.zetan = zeta(items, theta)
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(items), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

// Next draws the next zipfian value using r.
func (z *Zipf) Next(r *sim.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.items {
		v = z.items - 1
	}
	return v
}
