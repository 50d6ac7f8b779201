package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"bulkpim/internal/core"
	"bulkpim/internal/system"
)

// digest canonicalizes everything a point's result reports — cycles,
// drain cycles, violations and every Stats key — into a short hash.
func digest(r system.Result) string {
	keys := make([]string, 0, len(r.Stats))
	for k := range r.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fields := []string{fmt.Sprintf("cycles=%d drain=%d violations=%d", r.Cycles, r.DrainCycles, r.Violations)}
	for _, k := range keys {
		fields = append(fields, k+"="+strconv.FormatFloat(r.Stats[k], 'g', -1, 64))
	}
	sum := sha256.Sum256([]byte(strings.Join(fields, " ")))
	return hex.EncodeToString(sum[:12])
}

// reference is the committed digest file: every simulated point of
// the batch workloads at the default seed, computed through the
// shipped ycsb.Run, tpch.Run and litmus.SweepFig1 entry points.
type reference struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"` // "<workload>/<point key>" -> digest
}

func loadReference(path string) (reference, error) {
	var ref reference
	data, err := os.ReadFile(path)
	if err != nil {
		return ref, fmt.Errorf("reference: %w", err)
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return ref, fmt.Errorf("reference %s: %w", path, err)
	}
	if ref.Seed != defaultSeed {
		return ref, fmt.Errorf("reference %s was recorded at seed %d, want %d", path, ref.Seed, defaultSeed)
	}
	return ref, nil
}

// recordReference runs every point of the batch workloads through the
// shipped entry points at the default seed and writes the digests.
func recordReference(c config) error {
	ref := reference{Seed: defaultSeed, Digests: map[string]string{}}
	for _, name := range []string{"ycsb-scan", "tpch-query", "functional-verify"} {
		rc := c
		rc.workload, rc.seed = name, defaultSeed
		s := newSimWorkload(rc).(*simWorkload)
		if err := s.setup(nil); err != nil {
			return err
		}
		for _, p := range s.points {
			r, err := p.ship()
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, p.key, err)
			}
			ref.Digests[name+"/"+p.key] = digest(r)
			fmt.Fprintf(os.Stderr, "%s %s %s\n", name, p.key, ref.Digests[name+"/"+p.key])
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(c.reference, append(data, '\n'), 0o644)
}

// verify is the batch workloads' correctness gate. At the default
// seed every point must match the reference; at any other seed one
// point chosen by the seed is re-run through the shipped entry point
// and must match exactly. Proposed models must show no violation in
// functional runs, and the litmus verdicts must match the Fig. 1
// golden report.
func (s *simWorkload) verify(o *outcome) {
	if len(s.first) != len(s.points) {
		return // failed points are already counted
	}
	if s.c.seed == defaultSeed {
		ref, err := loadReference(s.c.reference)
		if err != nil {
			o.fail("%v", err)
			return
		}
		for _, p := range s.points {
			want, ok := ref.Digests[s.c.workload+"/"+p.key]
			if !ok {
				o.fail("%s: no reference digest", p.key)
			} else if got := digest(s.first[p.key]); got != want {
				o.fail("%s: digest %s, reference %s", p.key, got, want)
			}
		}
	} else {
		p := s.points[s.c.seed%uint64(len(s.points))]
		r, err := p.ship()
		if err != nil {
			o.fail("%s: shipped entry point: %v", p.key, err)
		} else if digest(r) != digest(s.first[p.key]) {
			o.fail("%s: differs from the shipped entry point's result", p.key)
		}
	}
	verdicts := map[string][3]bool{}
	for _, p := range s.points {
		r := s.first[p.key]
		if model, ok := strings.CutPrefix(p.key, "litmus/fig1/model="); ok {
			v := [3]bool{r.Stats["litmus.stale"] != 0, r.Stats["litmus.cycle"] != 0, r.Stats["litmus.incomplete"] != 0}
			verdicts[model] = v
			if p.proposed && v != [3]bool{} {
				o.fail("%s: proposed model not guaranteed correct (stale, cycle, incomplete = %v)", p.key, v)
			}
			continue
		}
		if p.functional && p.proposed && r.Violations != 0 {
			o.fail("%s: %d violations under a proposed model", p.key, r.Violations)
		}
	}
	if len(verdicts) > 0 {
		if err := checkFig1Golden(s.c.golden, verdicts); err != nil {
			o.fail("%v", err)
		}
	}
}

// checkFig1Golden compares litmus verdicts (stale read, hb cycle,
// stuck reads) with the rows of the Fig. 1 golden report. Every row
// must be matched by a computed model.
func checkFig1Golden(path string, verdicts map[string][3]bool) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("fig1 golden: %w", err)
	}
	defer f.Close()
	rows := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) < 4 {
			continue
		}
		if _, err := core.ParseModel(fs[0]); err != nil {
			continue // title, header and rule lines
		}
		rows++
		want := [3]bool{fs[1] == "true", fs[len(fs)-2] == "true", strings.Contains(sc.Text(), "(stuck reads)")}
		got, ok := verdicts[fs[0]]
		if !ok {
			return fmt.Errorf("fig1 golden: model %s was not run", fs[0])
		}
		if got != want {
			return fmt.Errorf("fig1 golden: %s stale/cycle/stuck = %v, golden %v", fs[0], got, want)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("fig1 golden: %w", err)
	}
	if rows == 0 {
		return fmt.Errorf("fig1 golden %s: no model rows", path)
	}
	return nil
}
