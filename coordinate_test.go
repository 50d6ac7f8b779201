package bulkpim

// Tests for the coordinator's bulkpim-side wiring: the dedup-then-
// dispatch property over the real suite manifest, the batch semantics
// runBatch layers over coord.Pool (fleet loss, launch failures, the
// retry budget, the progress footer), the worker launch argv, and the
// cache precondition. The pool itself (retry, exclusion, backoff) is
// tested in internal/coord; the subprocess protocol end to end in
// cmd/pimbench.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bulkpim/internal/coord"
	"bulkpim/internal/system"
)

// fleetWorker is an in-memory coord.Worker: it "executes" a task by
// recording its fingerprint, with seeded random delays to shuffle
// dispatch order. With dieAfter >= 0, the Run after dieAfter served
// jobs loses the worker; fingerprints in jobErrs fail as jobs.
type fleetWorker struct {
	rng      *rand.Rand
	mu       *sync.Mutex
	count    map[string]int
	dieAfter int
	jobErrs  map[string]bool
	runs     int
}

func (w *fleetWorker) Run(t coord.Task) (system.Result, error) {
	time.Sleep(time.Duration(w.rng.Intn(100)) * time.Microsecond)
	if w.dieAfter >= 0 && w.runs >= w.dieAfter {
		return system.Result{}, errors.New("simulated crash")
	}
	w.runs++
	if w.jobErrs[t.Fingerprint] {
		return system.Result{}, &coord.JobError{Msg: "simulated job failure"}
	}
	w.mu.Lock()
	w.count[t.Fingerprint]++
	w.mu.Unlock()
	return system.Result{}, nil
}

func (w *fleetWorker) Close() error { return nil }

// fakeFleet launches fleetWorkers sharing one execution tally; tweak,
// when non-nil, customizes worker id before it joins.
type fakeFleet struct {
	mu    sync.Mutex
	count map[string]int
	tweak func(id int, w *fleetWorker) error
}

func newFakeFleet(tweak func(id int, w *fleetWorker) error) *fakeFleet {
	return &fakeFleet{count: map[string]int{}, tweak: tweak}
}

func (f *fakeFleet) launch(id int) (coord.Worker, error) {
	w := &fleetWorker{rng: rand.New(rand.NewSource(int64(id) + 1)), mu: &f.mu,
		count: f.count, dieAfter: -1}
	if f.tweak != nil {
		if err := f.tweak(id, w); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func mkCoordTasks(n int) []coord.Task {
	tasks := make([]coord.Task, n)
	for i := range tasks {
		tasks[i] = coord.Task{Key: fmt.Sprintf("key-%d", i), Fingerprint: fmt.Sprintf("fp-%d", i)}
	}
	return tasks
}

func discardLog(string, ...any) {}

// TestCoordinateDeliversEachFingerprintOnce: over the paper's
// full-scale manifest, the coordinator's dedup-then-dispatch must
// deliver each distinct fingerprint to exactly one execution under
// randomized worker timing (seeded), for several fleet sizes — the
// distributed counterpart of the shard partition property.
func TestCoordinateDeliversEachFingerprintOnce(t *testing.T) {
	planned, err := planFor("all", Options{Scale: ScaleFull})
	if err != nil {
		t.Fatal(err)
	}
	groups, manifest := dedupPlan(planned)
	if len(groups) == 0 || len(groups) >= len(manifest) {
		t.Fatalf("degenerate dedup: %d groups of %d planned entries", len(groups), len(manifest))
	}
	tasks := make([]coord.Task, len(groups))
	for i, g := range groups {
		tasks[i] = coord.Task{Key: g.keys[0], Fingerprint: g.fp}
	}

	for _, workers := range []int{1, 3, 8} {
		f := newFakeFleet(func(id int, w *fleetWorker) error {
			w.rng = rand.New(rand.NewSource(int64(workers*100 + id)))
			return nil
		})
		last := 0
		sum, err := runBatch(tasks, workers, f.launch, func(done, total int, o coord.Outcome) {
			if total != len(tasks) || done != last+1 {
				t.Errorf("workers=%d: done=%d total=%d after %d", workers, done, total, last)
			}
			last = done
		}, nil, discardLog)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Done != len(groups) || sum.Failed != 0 || sum.Retried != 0 || sum.WorkersLost != 0 {
			t.Fatalf("workers=%d: summary %+v", workers, sum)
		}
		for _, g := range groups {
			if got := f.count[g.fp]; got != 1 {
				t.Fatalf("workers=%d: fingerprint %s (key %s) executed %d times, want exactly 1",
					workers, g.fp, g.keys[0], got)
			}
		}
	}
}

// TestCoordinateAllWorkersLost: when the whole fleet dies, the tasks
// still queued settle as failed and the batch returns instead of
// waiting for a worker that never joins.
func TestCoordinateAllWorkersLost(t *testing.T) {
	f := newFakeFleet(func(id int, w *fleetWorker) error {
		w.dieAfter = 2
		return nil
	})
	done := make(chan struct{})
	var sum CoordSummary
	var err error
	go func() {
		defer close(done)
		sum, err = runBatch(mkCoordTasks(30), 2, f.launch, nil, nil, discardLog)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("batch hung after losing its whole fleet")
	}
	if err == nil {
		t.Fatal("a fleet-wide loss must be an error")
	}
	if sum.WorkersLost != 2 {
		t.Fatalf("workers lost = %d, want 2", sum.WorkersLost)
	}
	if sum.Done != 4 || sum.Done+sum.Failed != 30 {
		t.Fatalf("every task must settle: %+v", sum)
	}
}

// crashOn loses its worker whenever it is handed fingerprint fp.
type crashOn struct {
	coord.Worker
	fp string
}

func (w crashOn) Run(t coord.Task) (system.Result, error) {
	if t.Fingerprint == w.fp {
		return system.Result{}, errors.New("simulated crash")
	}
	return w.Worker.Run(t)
}

// TestCoordinateLossFailsStrandedTask: one job failure plus one worker
// death must not hang the batch. Worker 0 fails fp-0 as a job; worker
// 1 crashes on it, or on its third job, whichever comes first. When
// worker 0 fails fp-0 first, fp-0 is requeued for worker 1, which dies
// before reaching it. The survivor is excluded from fp-0 and no
// replacement joins, so the batch must settle fp-0 as failed and
// return. Which worker takes fp-0 first is timing-dependent, hence the
// seeds.
func TestCoordinateLossFailsStrandedTask(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		f := newFakeFleet(func(id int, w *fleetWorker) error {
			w.rng = rand.New(rand.NewSource(int64(seed*10 + id)))
			if id == 0 {
				w.jobErrs = map[string]bool{"fp-0": true}
			} else {
				w.dieAfter = 2
			}
			return nil
		})
		launch := func(id int) (coord.Worker, error) {
			w, err := f.launch(id)
			if id == 1 && err == nil {
				w = crashOn{w, "fp-0"}
			}
			return w, err
		}
		done := make(chan struct{})
		var sum CoordSummary
		var err error
		go func() {
			defer close(done)
			sum, err = runBatch(mkCoordTasks(30), 2, launch, nil, nil, discardLog)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("seed %d: batch hung on a task no surviving worker may run", seed)
		}
		if err == nil || !strings.Contains(err.Error(), "key-0") {
			t.Fatalf("seed %d: error must name the stranded task: %v", seed, err)
		}
		if sum.Done != 29 || sum.Failed != 1 || sum.WorkersLost != 1 {
			t.Fatalf("seed %d: summary %+v", seed, sum)
		}
	}
}

// TestCoordinateLaunchFailure: a worker that cannot launch is a lost
// worker, not a fatal error — the rest of the fleet absorbs its share,
// and the failed launch is still reported.
func TestCoordinateLaunchFailure(t *testing.T) {
	f := newFakeFleet(func(id int, w *fleetWorker) error {
		if id == 2 {
			return errors.New("ssh: connection refused")
		}
		return nil
	})
	sum, err := runBatch(mkCoordTasks(25), 3, f.launch, nil, nil, discardLog)
	if err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("launch failure must be reported: %v", err)
	}
	if sum.Done != 25 || sum.Failed != 0 || sum.WorkersLost != 1 {
		t.Fatalf("summary %+v", sum)
	}

	// A fleet that launches nobody fails every task instead of hanging.
	none := func(int) (coord.Worker, error) { return nil, errors.New("no route to host") }
	sum, err = runBatch(mkCoordTasks(5), 2, none, nil, nil, discardLog)
	if err == nil || sum.Failed != 5 || sum.WorkersLost != 2 {
		t.Fatalf("fleet-less batch: %+v, %v", sum, err)
	}
}

// TestCoordinatePermanentFailure: a job that fails on every attempt
// settles as failed once the pool's attempt budget is spent, named in
// the returned error, without taking the rest of the batch down.
func TestCoordinatePermanentFailure(t *testing.T) {
	f := newFakeFleet(func(id int, w *fleetWorker) error {
		w.jobErrs = map[string]bool{"fp-4": true}
		return nil
	})
	var failed []coord.Outcome
	sum, err := runBatch(mkCoordTasks(10), 4, f.launch, func(done, total int, o coord.Outcome) {
		if o.Err != nil {
			failed = append(failed, o)
		}
	}, nil, discardLog)
	if err == nil || !strings.Contains(err.Error(), "key-4") {
		t.Fatalf("error must name the failed task: %v", err)
	}
	if sum.Done != 9 || sum.Failed != 1 || sum.WorkersLost != 0 {
		t.Fatalf("summary %+v", sum)
	}
	if len(failed) != 1 || failed[0].Task.Key != "key-4" || failed[0].Attempts != 3 {
		t.Fatalf("failed outcomes %+v, want key-4 after 3 attempts", failed)
	}
	if f.count["fp-4"] != 0 {
		t.Fatal("permanently failing job recorded an execution")
	}
}

// TestCoordinateProgressFooter: the live footer carries jobs-done/ETA
// and terminates with the final accounting on its own line.
func TestCoordinateProgressFooter(t *testing.T) {
	var progress bytes.Buffer
	if _, err := runBatch(mkCoordTasks(12), 2, newFakeFleet(nil).launch, nil, &progress, discardLog); err != nil {
		t.Fatal(err)
	}
	out := progress.String()
	if !strings.Contains(out, "coord: ") || !strings.Contains(out, "ETA") {
		t.Fatalf("footer missing: %q", out)
	}
	if !strings.Contains(out, "12/12 jobs done (0 failed, 0 retried, 0 workers lost)") {
		t.Fatalf("final accounting missing: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("footer not terminated with a newline: %q", out)
	}
}

// TestCoordinateEmptyPlan: an empty task list returns at once without
// launching anything.
func TestCoordinateEmptyPlan(t *testing.T) {
	sum, err := runBatch(nil, 4, func(int) (coord.Worker, error) {
		t.Fatal("launched a worker for zero tasks")
		return nil, nil
	}, nil, nil, discardLog)
	if err != nil || sum != (CoordSummary{}) {
		t.Fatalf("%+v, %v", sum, err)
	}
}

// TestDedupPlanGroupsCoverManifest: the fingerprint groups partition
// the manifest's distinct (key, fingerprint) identities — every
// planned identity appears in exactly one group, canonical key first
// in plan order.
func TestDedupPlanGroupsCoverManifest(t *testing.T) {
	planned, err := planFor("all", Options{Scale: ScaleFull})
	if err != nil {
		t.Fatal(err)
	}
	groups, manifest := dedupPlan(planned)
	type identity struct{ key, fp string }
	want := map[identity]bool{}
	firstKey := map[string]string{}
	for _, j := range manifest {
		want[identity{j.Key, j.Fingerprint}] = true
		if _, ok := firstKey[j.Fingerprint]; !ok {
			firstKey[j.Fingerprint] = j.Key
		}
	}
	got := map[identity]bool{}
	for _, g := range groups {
		if g.keys[0] != firstKey[g.fp] {
			t.Fatalf("group %s canonical key %s, want first-in-plan-order %s", g.fp, g.keys[0], firstKey[g.fp])
		}
		for _, k := range g.keys {
			id := identity{k, g.fp}
			if got[id] {
				t.Fatalf("identity %v in two groups", id)
			}
			got[id] = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups cover %d identities, manifest has %d", len(got), len(want))
	}
}

// TestWorkerArgv covers the launch template grammar.
func TestWorkerArgv(t *testing.T) {
	workArgs := []string{"work", "-snapshot-dir", "/srv/snap"}

	self, err := workerArgv("", workArgs)
	if err != nil || len(self) != len(workArgs)+1 || self[0] == "" || self[1] != "work" {
		t.Fatalf("self-exec argv = %v, %v", self, err)
	}

	ssh, err := workerArgv("ssh build-02 /opt/pimbench {args}", workArgs)
	want := append([]string{"ssh", "build-02", "/opt/pimbench"}, workArgs...)
	if err != nil || !reflect.DeepEqual(ssh, want) {
		t.Fatalf("template argv = %v, %v", ssh, err)
	}

	appended, err := workerArgv("nice -n 10 /opt/pimbench", workArgs)
	want = append([]string{"nice", "-n", "10", "/opt/pimbench"}, workArgs...)
	if err != nil || !reflect.DeepEqual(appended, want) {
		t.Fatalf("no-placeholder argv = %v, %v", appended, err)
	}

	if _, err := workerArgv("   ", workArgs); err == nil {
		t.Fatal("blank template accepted")
	}
}

// workFlagSet mirrors the `pimbench work` subcommand's flag set. Keep
// it in sync with newWorkFlags in cmd/pimbench (TestSharedFlagParity
// pins that set's names) — the *WorkArgsRoundTrip tests parse fleet
// argvs through it, so an option a launcher emits that workers cannot parse
// fails here instead of at fleet launch.
func workFlagSet() (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	snapDir := fs.String("snapshot-dir", "", "")
	fs.Bool("v", false, "")
	fs.Int("fail-after", 0, "")
	fs.String("cpuprofile", "", "")
	fs.String("memprofile", "", "")
	return fs, snapDir
}

// parseWorkArgv parses a fleet worker's launch argv — its operands
// from the work subcommand on — through the work flag set and returns
// the -snapshot-dir and -fail-after values. Experiment selection never
// rides the argv; it travels per job in the spec.
func parseWorkArgv(t *testing.T, argv []string) (snapDir, failAfter string) {
	t.Helper()
	i := 0
	for i < len(argv) && argv[i] != "work" {
		i++
	}
	if i == len(argv) {
		t.Fatalf("argv carries no work subcommand: %v", argv)
	}
	fs, snap := workFlagSet()
	if err := fs.Parse(argv[i+1:]); err != nil {
		t.Fatalf("work flag set rejects worker argv %v: %v", argv, err)
	}
	if fs.NArg() != 0 {
		t.Fatalf("argv %v leaves unparsed operands %v — a flag was dropped or misspelled", argv, fs.Args())
	}
	for _, a := range argv[i+1:] {
		if a == "-exp" || a == "-scale" || a == "-seed" || a == "-dynamic" {
			t.Errorf("argv %v carries %s: workers take their experiment from each job's spec", argv, a)
		}
	}
	return *snap, fs.Lookup("fail-after").Value.String()
}

// TestCoordWorkArgsRoundTrip: every argv a coordinator's fleet is
// launched with must round-trip through the work subcommand's flag
// set: every option propagated, nothing dropped, nothing the workers
// cannot parse. A silently dropped -snapshot-dir would let workers
// regenerate every database the store already holds; the crash-
// injected worker alone carries -fail-after.
func TestCoordWorkArgsRoundTrip(t *testing.T) {
	snap, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scale: ScaleMedium, Seed: 7, Snapshots: snap}
	copts := CoordOptions{Workers: 3, FailWorker: 1, FailAfter: 2}
	for id := 0; id < copts.Workers; id++ {
		argv, err := fleetArgv(opts, copts.WorkerCmd, id, copts.FailWorker, copts.FailAfter)
		if err != nil {
			t.Fatal(err)
		}
		if len(argv) < 2 || argv[1] != "work" {
			t.Fatalf("worker %d: argv must run the work subcommand of this executable: %v", id, argv)
		}
		snapDir, failAfter := parseWorkArgv(t, argv)
		if snapDir != snap.Dir() {
			t.Errorf("worker %d: -snapshot-dir = %q, want %q", id, snapDir, snap.Dir())
		}
		want := "0"
		if id == copts.FailWorker {
			want = "2"
		}
		if failAfter != want {
			t.Errorf("worker %d: -fail-after = %s, want %s", id, failAfter, want)
		}
	}

	// Without a snapshot store the flag is omitted entirely, keeping
	// workers on their no-store default.
	argv, err := fleetArgv(Options{Scale: ScaleSmoke}, "", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snapDir, failAfter := parseWorkArgv(t, argv); snapDir != "" || failAfter != "0" {
		t.Fatalf("store-less, uninjected argv %v: -snapshot-dir %q, -fail-after %s", argv, snapDir, failAfter)
	}
}

// TestServeWorkArgsRoundTrip: a serve daemon's worker argv, expanded
// through a -worker-cmd template, must also round-trip through the
// work flag set — the same skew guard as the coordinator's.
func TestServeWorkArgsRoundTrip(t *testing.T) {
	snap, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sopts := ServerOptions{WorkerCmd: "nice -n 10 /opt/pimbench {args}"}
	argv, err := fleetArgv(Options{Snapshots: snap}, sopts.WorkerCmd, 0, sopts.FailWorker, sopts.FailAfter)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"nice", "-n", "10", "/opt/pimbench", "work"}; !reflect.DeepEqual(argv[:len(want)], want) {
		t.Fatalf("template not expanded in place: %v", argv)
	}
	if snapDir, _ := parseWorkArgv(t, argv); snapDir != snap.Dir() {
		t.Errorf("-snapshot-dir = %q, want %q", snapDir, snap.Dir())
	}

	// Store-less daemons omit the flag, like store-less coordinators.
	argv, err = fleetArgv(Options{}, sopts.WorkerCmd, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snapDir, _ := parseWorkArgv(t, argv); snapDir != "" {
		t.Fatalf("store-less serve argv %v emitted -snapshot-dir %q", argv, snapDir)
	}
}

// TestCoordinateRequiresCache: a coordinated run without a cache would
// compute results and drop them.
func TestCoordinateRequiresCache(t *testing.T) {
	if _, err := Coordinate("fig3", Options{Scale: ScaleSmoke}, CoordOptions{}); err == nil {
		t.Fatal("cache-less coordinated run accepted")
	}
}
