package bulkpim

// Tests for the plan/execute separation and the distributed pipeline's
// planning half: planning must execute zero simulation work, manifests
// must be deterministic, and shards must partition the suite exactly.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestPlanExecutesNothing is the plan/execute separation contract:
// planning every experiment — at the paper's full measurement volume —
// and fingerprinting every planned job must invoke no job's Execute.
// (Every spec routes its Execute closures through the countExec
// instrumentation.)
func TestPlanExecutesNothing(t *testing.T) {
	before := execCount.Load()
	planned, err := planFor("all", Options{Scale: ScaleFull})
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for _, p := range planned {
		for _, j := range p.jobs {
			jobs++
			if j.Key == "" || j.FingerprintID() == "" {
				t.Fatalf("%s: job without key/fingerprint: %+v", p.name, j)
			}
		}
	}
	if jobs == 0 {
		t.Fatal("full-scale suite planned zero jobs")
	}
	if got := execCount.Load() - before; got != 0 {
		t.Fatalf("planning executed %d simulation jobs, want 0", got)
	}
}

// TestManifestDeterministic: two plans of the same options must agree
// exactly — the property that lets every machine of a distributed run
// derive the same manifest independently.
func TestManifestDeterministic(t *testing.T) {
	opts := Options{Scale: ScaleQuick}
	a, err := Manifest("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Manifest("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("manifests differ or empty: %d vs %d entries", len(a), len(b))
	}
}

// TestManifestKeyFingerprintCoherent: within one suite manifest, a job
// key must always carry the same fingerprint — grid points shared
// across experiments (the Naive baselines) are one unit of work, and
// merge validation depends on (key, fingerprint) identifying it.
func TestManifestKeyFingerprintCoherent(t *testing.T) {
	manifest, err := Manifest("all", Options{Scale: ScaleSmoke})
	if err != nil {
		t.Fatal(err)
	}
	fp := map[string]string{}
	for _, j := range manifest {
		if prev, ok := fp[j.Key]; ok && prev != j.Fingerprint {
			t.Fatalf("key %s planned with two fingerprints: %s vs %s", j.Key, prev, j.Fingerprint)
		}
		fp[j.Key] = j.Fingerprint
	}
}

// TestShardPartitionProperty: for every shard count n in 1..16 over
// the paper's full-scale manifest, the shards must partition the
// suite — ShardOf gives every key exactly one owner, and the n
// FilterManifest slices are pairwise disjoint with their multiset
// union equal to the full manifest (so independently planned shard
// runs can never skip or duplicate work).
func TestShardPartitionProperty(t *testing.T) {
	manifest, err := Manifest("all", Options{Scale: ScaleFull})
	if err != nil {
		t.Fatal(err)
	}
	if len(manifest) == 0 {
		t.Fatal("empty full-scale manifest")
	}
	want := map[PlannedJob]int{}
	for _, j := range manifest {
		want[j]++
	}
	for n := 1; n <= 16; n++ {
		perShard := make([]int, n)
		for _, j := range manifest {
			owners := 0
			for i := 0; i < n; i++ {
				if (Shard{Index: i, Count: n}).Owns(j.Key) {
					owners++
					perShard[i]++
				}
			}
			if owners != 1 {
				t.Fatalf("n=%d: key %s owned by %d shards, want exactly 1", n, j.Key, owners)
			}
		}
		if n > 1 {
			empty := 0
			for _, c := range perShard {
				if c == 0 {
					empty++
				}
			}
			// The full-scale suite has far more keys than shards; a
			// totally empty shard would mean a degenerate hash.
			if empty == n-1 {
				t.Fatalf("n=%d: all keys hashed to one shard: %v", n, perShard)
			}
		}

		// FilterManifest applies dedup-then-assign ownership: the n
		// filtered slices must cover every manifest entry exactly once
		// (multiset equality ⇒ pairwise disjoint + complete cover).
		got := map[PlannedJob]int{}
		total := 0
		for i := 0; i < n; i++ {
			f := FilterManifest(manifest, Shard{Index: i, Count: n})
			total += len(f)
			for _, j := range f {
				got[j]++
			}
		}
		if total != len(manifest) || !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: filtered manifests are not a partition: %d entries over shards, %d in manifest",
				n, total, len(manifest))
		}
	}
}

// TestParseShard covers the accepted and rejected spellings.
func TestParseShard(t *testing.T) {
	sh, err := ParseShard("2/4")
	if err != nil || sh.Index != 2 || sh.Count != 4 || sh.String() != "2/4" {
		t.Fatalf("ParseShard(2/4) = %+v, %v", sh, err)
	}
	for _, bad := range []string{"", "x", "1", "4/4", "-1/4", "0/0", "a/b", "1/2/4", "0/2x", " 0/2"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// TestRegistryResolution: the advertised experiment lists and the
// dispatch path both derive from the registry, so every listed name
// must resolve and every standalone name must be a canonical spec.
func TestRegistryResolution(t *testing.T) {
	for _, name := range StandaloneExperiments() {
		spec, ok := LookupExperiment(name)
		if !ok || spec.Name != name {
			t.Fatalf("standalone %q resolves to %q (ok=%v)", name, spec.Name, ok)
		}
	}
	for _, name := range Experiments() {
		if name == "all" {
			continue
		}
		if _, ok := LookupExperiment(name); !ok {
			t.Fatalf("listed experiment %q does not resolve", name)
		}
	}
	// Bundled artifacts resolve to their owning sweep's spec.
	for bundle, owner := range map[string]string{"fig10": "fig7", "fig9": "fig8"} {
		spec, ok := LookupExperiment(bundle)
		if !ok || spec.Name != owner {
			t.Fatalf("bundle %q resolves to %q (ok=%v), want %q", bundle, spec.Name, ok, owner)
		}
	}
	if _, ok := LookupExperiment("all"); ok {
		t.Fatal("\"all\" must not be a registered spec (it is the suite)")
	}
}

// TestExecuteShardCoversSuite: executing every shard of a 3-way split
// at smoke scale must cover exactly the suite's distinct jobs, and a
// report pass against the combined cache must be fully warm and
// byte-identical to an uncached run.
func TestExecuteShardCoversSuite(t *testing.T) {
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	opts := Options{Scale: ScaleSmoke, Cache: cache}

	manifest, err := Manifest("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	var distinct int
	for i := 0; i < 3; i++ {
		sh := Shard{Index: i, Count: 3}
		sum, err := ExecuteShard("all", opts, sh)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		executed += sum.Owned
		distinct = sum.Distinct
		// `plan -shard` and `run -shard` must agree: the filtered
		// manifest's distinct fingerprints are exactly the simulations
		// this shard executed.
		fps := map[string]bool{}
		for _, j := range FilterManifest(manifest, sh) {
			fps[j.Fingerprint] = true
		}
		if len(fps) != sum.Owned {
			t.Fatalf("shard %d: filtered manifest has %d distinct fingerprints, executed %d",
				i, len(fps), sum.Owned)
		}
	}
	if executed != distinct {
		t.Fatalf("shards executed %d jobs, suite has %d distinct", executed, distinct)
	}

	afterShards := cache.Stats()
	warm := runAllReport(t, opts)
	stats := cache.Stats()
	if stats.Misses != afterShards.Misses {
		t.Fatalf("report pass after sharded execution missed the cache: %+v -> %+v", afterShards, stats)
	}

	if warm != runAllReport(t, Options{Scale: ScaleSmoke}) {
		t.Fatal("sharded+cached report differs from direct run")
	}
}

// TestExecutePlanFansOutGroups drives executePlan over a two-spec
// registry whose plans overlap: "ok" and "bad" are each planned under
// two keys (one simulation, one alias), and "a/ok" is planned twice
// under the same key. Each fingerprint must run once; a computed
// result must reach the cache under each key exactly once and settle
// under every key; a failed one must store nothing and settle its
// error under every key.
func TestExecutePlanFansOutGroups(t *testing.T) {
	var okRuns, badRuns atomic.Int64
	sum, cache, settled, err := executeSpecs(t,
		[]SimJob{fanOutJob("a/ok", "ok", &okRuns), fanOutJob("a/bad", "bad", &badRuns)},
		[]SimJob{fanOutJob("b/ok", "ok", &okRuns), fanOutJob("a/ok", "ok", &okRuns), fanOutJob("b/bad", "bad", &badRuns)})
	if err == nil || !strings.Contains(err.Error(), "a/bad: injected failure") {
		t.Fatalf("error %v, want the failed group reported against its canonical key", err)
	}
	if okRuns.Load() != 1 || badRuns.Load() != 1 {
		t.Fatalf("ran ok %d and bad %d times, want each fingerprint once", okRuns.Load(), badRuns.Load())
	}
	if sum.Planned != 5 || sum.Distinct != 2 || sum.Owned != 2 || sum.Aliased != 1 {
		t.Fatalf("summary %+v, want 5 planned, 2 distinct, 2 owned, 1 alias", sum)
	}
	for key, wantErr := range map[string]bool{"a/ok": false, "b/ok": false, "a/bad": true, "b/bad": true} {
		if jobErr, ok := settled[key]; !ok || (jobErr != nil) != wantErr {
			t.Errorf("%s: settled=%v err=%v, want err=%v", key, ok, jobErr, wantErr)
		}
	}
	if st := cache.Stats(); st.Stores != 2 {
		t.Fatalf("cache stored %d entries, want the ok result under its 2 keys", st.Stores)
	}
	for _, key := range []string{"a/ok", "b/ok"} {
		if _, ok := cache.Lookup(key, fanOutJob(key, "ok", &okRuns).FingerprintID()); !ok {
			t.Errorf("%s missing from the cache", key)
		}
	}
}

// fanOutJob returns a job planned under key whose Execute counts into
// runs and fails when extra is "bad"; jobs with the same extra share a
// fingerprint.
func fanOutJob(key, extra string, runs *atomic.Int64) SimJob {
	return SimJob{Key: key, Base: DefaultConfig(), Extra: extra,
		Execute: func(Config) (Result, error) {
			runs.Add(1)
			if extra == "bad" {
				return Result{}, errors.New("injected failure")
			}
			return Result{Cycles: 7}, nil
		}}
}

// executeSpecs swaps in a registry with one spec per job list, runs
// executePlan over all of it into a fresh cache, and returns the
// summary, the cache, the error each key settled with and the batch
// error. A key settled twice fails the test.
func executeSpecs(t *testing.T, specs ...[]SimJob) (ShardSummary, *ResultCache, map[string]error, error) {
	t.Helper()
	saved := registry
	t.Cleanup(func() { registry = saved })
	registry = nil
	for i, jobs := range specs {
		jobs := jobs
		registry = append(registry, ExperimentSpec{Name: fmt.Sprintf("s%d", i),
			Plan: func(Options) ([]SimJob, error) { return jobs, nil }})
	}
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	settled := map[string]error{}
	sum, err := executePlan("all", Options{Cache: cache, Parallelism: 2}, Shard{},
		func(key string, r Result, jobErr error) {
			if _, dup := settled[key]; dup {
				t.Errorf("%s settled twice", key)
			}
			if jobErr == nil && r.Cycles != 7 {
				t.Errorf("%s settled with %d cycles, want 7", key, r.Cycles)
			}
			settled[key] = jobErr
		}, runLocal)
	return sum, cache, settled, err
}

// TestExecutePlanFingerprintDedupAcrossKeys: one fingerprint planned
// under four keys across two specs runs once, and its result is stored
// and settled under every key.
func TestExecutePlanFingerprintDedupAcrossKeys(t *testing.T) {
	var runs atomic.Int64
	keys := []string{"alias-0", "alias-1", "alias-2", "alias-3"}
	sum, cache, settled, err := executeSpecs(t,
		[]SimJob{fanOutJob(keys[0], "ok", &runs), fanOutJob(keys[1], "ok", &runs)},
		[]SimJob{fanOutJob(keys[2], "ok", &runs), fanOutJob(keys[3], "ok", &runs)})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("%d executions for 4 keys of one fingerprint, want 1", runs.Load())
	}
	if sum.Planned != 4 || sum.Distinct != 1 || sum.Owned != 1 || sum.Aliased != 3 {
		t.Fatalf("summary %+v, want 4 planned, 1 distinct, 1 owned, 3 aliases", sum)
	}
	if st := cache.Stats(); st.Stores != 4 {
		t.Fatalf("cache stored %d entries, want one per key (4)", st.Stores)
	}
	for _, key := range keys {
		if jobErr, ok := settled[key]; !ok || jobErr != nil {
			t.Errorf("%s: settled=%v err=%v, want a result", key, ok, jobErr)
		}
		if r, ok := cache.Lookup(key, fanOutJob(key, "ok", &runs).FingerprintID()); !ok || r.Cycles != 7 {
			t.Errorf("%s: cached=%v cycles=%d, want 7", key, ok, r.Cycles)
		}
	}
}

// TestExecutePlanSameKeyTwinStoresOnce: a key planned twice with one
// fingerprint (by two specs) is stored and settled once, while an alias
// of the same fingerprint still gets its own entry.
func TestExecutePlanSameKeyTwinStoresOnce(t *testing.T) {
	var runs atomic.Int64
	sum, cache, settled, err := executeSpecs(t,
		[]SimJob{fanOutJob("naive", "ok", &runs)},
		[]SimJob{fanOutJob("naive", "ok", &runs), fanOutJob("alias", "ok", &runs)})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("%d executions, want 1", runs.Load())
	}
	if sum.Planned != 3 || sum.Distinct != 1 || sum.Aliased != 1 {
		t.Fatalf("summary %+v, want 3 planned, 1 distinct, 1 alias", sum)
	}
	if st := cache.Stats(); st.Stores != 2 {
		t.Fatalf("cache stored %d entries, want exactly one per distinct key (2)", st.Stores)
	}
	if len(settled) != 2 || settled["naive"] != nil || settled["alias"] != nil {
		t.Fatalf("settled %v, want naive and alias once each without error", settled)
	}
}

// TestExecutePlanFailedGroupStoresNothing: a failing fingerprint
// planned under three keys runs once, writes no cache entry under any
// key, and settles its error under every key.
func TestExecutePlanFailedGroupStoresNothing(t *testing.T) {
	var runs atomic.Int64
	keys := []string{"k-0", "k-1", "k-2"}
	_, cache, settled, err := executeSpecs(t,
		[]SimJob{fanOutJob(keys[0], "bad", &runs), fanOutJob(keys[1], "bad", &runs)},
		[]SimJob{fanOutJob(keys[2], "bad", &runs)})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("error %v, want the injected failure", err)
	}
	if runs.Load() != 1 {
		t.Fatalf("%d executions, want 1", runs.Load())
	}
	if st := cache.Stats(); st.Stores != 0 {
		t.Fatalf("failed group written back %d times", st.Stores)
	}
	for _, key := range keys {
		if jobErr, ok := settled[key]; !ok || jobErr == nil {
			t.Errorf("%s: settled=%v err=%v, want the failure", key, ok, jobErr)
		}
		if _, ok := cache.Lookup(key, fanOutJob(key, "bad", &runs).FingerprintID()); ok {
			t.Errorf("%s found in the cache", key)
		}
	}
}
