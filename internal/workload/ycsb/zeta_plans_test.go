package ycsb_test

import (
	"regexp"
	"strconv"
	"testing"

	"bulkpim"
	"bulkpim/internal/workload/ycsb"
)

// ycsbIdentity matches the YCSB workload identity a planned job carries in
// SimJob.Extra (the %+v form of its Params).
var ycsbIdentity = regexp.MustCompile(`^ycsb:\{Records:(\d+) .*MaxScanRecords:(\d+) .*ZipfTheta:([0-9.e+-]+) `)

// Every YCSB workload a shipped plan builds — every experiment behind
// Manifest, at every scale — draws from a Zipf whose zeta is committed,
// so no shipped run sums zeta cold.
func TestZetaCommittedCoversShippedPlans(t *testing.T) {
	seen := map[uint64]bool{}
	for _, scale := range bulkpim.Scales() {
		for _, name := range bulkpim.Experiments() {
			spec, ok := bulkpim.LookupExperiment(name)
			if !ok || spec.Plan == nil {
				continue
			}
			jobs, err := spec.Plan(bulkpim.Options{Scale: scale})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, scale, err)
			}
			for _, j := range jobs {
				m := ycsbIdentity.FindStringSubmatch(j.Extra)
				if m == nil {
					continue
				}
				records, _ := strconv.Atoi(m[1])
				maxScan, _ := strconv.Atoi(m[2])
				theta, err := strconv.ParseFloat(m[3], 64)
				if err != nil {
					t.Fatalf("%s/%s %s: theta %q: %v", name, scale, j.Key, m[3], err)
				}
				n := ycsb.ZipfItems(ycsb.Params{Records: records, MaxScanRecords: maxScan})
				if !ycsb.ZetaCommitted(n, theta) {
					t.Errorf("%s/%s %s: zeta(%d, %v) is not committed", name, scale, j.Key, n, theta)
				}
				seen[n] = true
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no YCSB job found in any plan")
	}
	if !ycsb.ZetaCommitted(2, 0.99) {
		t.Error("zeta(2, 0.99), every generator's zeta2theta, is not committed")
	}
}
