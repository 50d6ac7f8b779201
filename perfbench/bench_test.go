package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The self-test runs every workload at tiny sizes for one second.

func tinyConfig(t *testing.T, workload string, seed uint64, trace bool) config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, seed: seed, seconds: time.Second, trace: trace, root: root,
		reference: filepath.Join(root, "perfbench", "reference.json"),
		golden:    filepath.Join(root, "testdata", "fig1_smoke.golden"), tiny: true}
}

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryDeclaredMetricIsPrinted runs each workload declared in
// BENCHMARK.json untraced and traced, and requires every declared
// metric in the result line with its declared unit, and nothing else.
func TestEveryDeclaredMetricIsPrinted(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) == 0 || len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or metrics")
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			o, err := run(tinyConfig(t, w.Name, defaultSeed, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			r := o.result()
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, trace, r.Correct, r.Attempted, r.Failed, o.errs)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d",
					w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s",
						w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if !trace {
				for _, m := range want {
					if r.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, r.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestOtherSeedChecksShippedEntryPoint runs the batch workloads away
// from the default seed, where one sampled point is re-run through the
// shipped entry point instead of the reference.
func TestOtherSeedChecksShippedEntryPoint(t *testing.T) {
	for _, w := range []string{"ycsb-scan", "tpch-query"} {
		o, err := run(tinyConfig(t, w, 2, false))
		if err != nil {
			t.Fatal(err)
		}
		if !o.correct() {
			t.Errorf("%s at seed 2: %v", w, o.errs)
		}
	}
}

// TestPerturbedReferenceFails changes one reference digest: the run
// must report the mismatch and count it as failed.
func TestPerturbedReferenceFails(t *testing.T) {
	c := tinyConfig(t, "tpch-query", defaultSeed, false)
	ref, err := loadReference(c.reference)
	if err != nil {
		t.Fatal(err)
	}
	key := "tpch-query/tpch/q11/model=scope"
	if _, ok := ref.Digests[key]; !ok {
		t.Fatalf("reference has no %s", key)
	}
	ref.Digests[key] = "000000000000000000000000"
	c.reference = filepath.Join(t.TempDir(), "reference.json")
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.reference, data, 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := run(c)
	if err != nil {
		t.Fatal(err)
	}
	if o.correct() || o.result().Failed == 0 || !strings.Contains(strings.Join(o.errs, "\n"), "q11/model=scope") {
		t.Fatalf("perturbed digest passed: correct=%v errs=%v", o.correct(), o.errs)
	}
}

// TestFlippedFig1VerdictFails flips one outcome of the Fig. 1 golden
// report: the functional run must no longer match it.
func TestFlippedFig1VerdictFails(t *testing.T) {
	c := tinyConfig(t, "functional-verify", defaultSeed, false)
	data, err := os.ReadFile(c.golden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	flipped := false
	for i, l := range lines {
		if strings.HasPrefix(l, "scope ") {
			lines[i] = strings.Replace(l, "false", "true", 1)
			flipped = lines[i] != l
		}
	}
	if !flipped {
		t.Fatal("no scope row to flip in the Fig. 1 golden")
	}
	c.golden = filepath.Join(t.TempDir(), "fig1.golden")
	if err := os.WriteFile(c.golden, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := run(c)
	if err != nil {
		t.Fatal(err)
	}
	if o.correct() || !strings.Contains(strings.Join(o.errs, "\n"), "fig1 golden: scope") {
		t.Fatalf("flipped verdict passed: correct=%v errs=%v", o.correct(), o.errs)
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {9, 20}}
	if got := covered(ivs, 1, 10); got != 7 { // [1,4], [5,8], [9,10]
		t.Fatalf("covered = %d, want 7", got)
	}
}

func TestModulePackage(t *testing.T) {
	for fn, want := range map[string]string{
		"bulkpim/internal/cache.(*LLC).scan":                         "cache",
		"bulkpim/internal/workload/ycsb.zeta":                        "ycsb",
		"bulkpim.(*Server).exec":                                     "bulkpim",
		"bulkpim/internal/runner.RunJobs[go.shape.struct { x.y/z }]": "runner",
		"bulkpim/internal/stats.(*Mean).Add":                         "other",
	} {
		if got, ok := modulePackage(fn); !ok || got != want {
			t.Errorf("modulePackage(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := modulePackage("runtime.mallocgc"); ok {
		t.Error("runtime symbol bucketed as module code")
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 400ms, Total samples = 290000000ns (72.32%)
-----------+-------------------------------------------------------
280000000ns   runtime.nanotime (inline)
             bulkpim/internal/runner.RunJobs[go.shape.struct { x.y/z }]
             main.main
-----------+-------------------------------------------------------
  10000000ns   main.spin
-----------+-------------------------------------------------------
`
	st, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 || st[0].value != 280000000 || st[1].value != 10000000 {
		t.Fatalf("parsed %+v", st)
	}
	if got := bucket(st[0].funcs); got != "runner" {
		t.Errorf("first sample bucketed as %q, want runner", got)
	}
	if got := bucket(st[1].funcs); got != "bench" {
		t.Errorf("second sample bucketed as %q, want bench", got)
	}
	if _, err := parseTraces("not a pprof listing"); err == nil {
		t.Error("output without a samples section parsed")
	}
}

// TestOffPlanPointFails runs the TPC-H grid at quick's scale against
// fig8/medium's plan: the keys match, the points do not, so set-up
// must refuse them.
func TestOffPlanPointFails(t *testing.T) {
	s := newSimWorkload(tinyConfig(t, "tpch-query", defaultSeed, false)).(*simWorkload)
	if err := s.setup(nil); err != nil {
		t.Fatal(err)
	}
	s.sizes.tpchScale = 0.02
	err := s.setup(nil)
	if err == nil || !strings.Contains(err.Error(), "not the shipped fig8/medium plan's point") {
		t.Fatalf("off-plan grid accepted: %v", err)
	}
}
