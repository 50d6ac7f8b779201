package report

import "sort"

// Test-only accessors and helpers, kept out of the production build.

// SortedKeys returns map keys sorted (stable printing).
func SortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
