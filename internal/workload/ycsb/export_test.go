package ycsb

// ZipfItems exposes zipfItems to the plan-coverage test in package
// ycsb_test.
var ZipfItems = zipfItems

// ZetaCommitted reports whether zeta(n, theta) is in the committed table.
func ZetaCommitted(n uint64, theta float64) bool {
	if theta != committedTheta {
		return false
	}
	for _, c := range committedZetaBits {
		if c.n == n {
			return true
		}
	}
	return false
}
