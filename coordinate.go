package bulkpim

// Fault-tolerant coordinated execution, built on internal/coord: the
// coordinator plans the suite, dedups it to distinct simulations
// (dedupPlan — the same rule the shard pipeline uses), and submits
// each one, with the spec it was planned from, to a coord.Pool of
// `pimbench work` subprocesses — the scheduler and worker protocol the
// serve daemon runs on. Every finished result streams straight into
// the shared result cache — under the canonical key and every alias —
// so a mid-run kill loses at most in-flight jobs and a subsequent
// report pass (pimbench -exp ... -cache-dir ...) is served entirely
// from cache hits, byte-identical to a single-process run.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"bulkpim/internal/coord"
)

// CoordOptions configures a coordinated run.
type CoordOptions struct {
	// Workers is the worker-subprocess fleet size; <= 0 means
	// GOMAXPROCS (never more than the distinct job count).
	Workers int
	// WorkerCmd is the worker launch template. Empty re-executes the
	// current binary; otherwise it is split on whitespace and its
	// "{args}" field expands to the work-subcommand arguments (appended
	// when absent) — e.g. "ssh build-02 /opt/pimbench {args}" for an
	// ssh-style remote worker.
	WorkerCmd string
	// Progress, when non-nil, receives the live jobs-done/ETA footer.
	Progress io.Writer
	// WorkerStderr, when non-nil, receives the workers' stderr (their
	// log channel); nil discards it.
	WorkerStderr io.Writer
	// FailWorker/FailAfter are the crash-injection test hook: with
	// FailAfter > 0, worker FailWorker is launched with `-fail-after
	// FailAfter` and dies after serving that many jobs — losing its
	// next job in flight, which the coordinator must retry elsewhere.
	FailWorker int
	FailAfter  int
	// Stream, when non-nil, receives each artifact emission the moment
	// its last planned job settles (see ReportStream): the coordinated
	// run renders figures coordinator-side from worker results instead
	// of deferring everything to a warm report pass. Workers stay
	// execute-only. Calls arrive serialized.
	Stream func(StreamEmit)
}

// CoordSummary accounts one coordinated run.
type CoordSummary struct {
	// Planned counts the suite's manifest entries; Distinct the unique
	// simulations after fingerprint dedup; Done/Failed the settled
	// tasks; Retried the re-dispatches after worker crashes or job
	// errors; WorkersLost the workers that failed to launch or died.
	Planned, Distinct, Done, Failed, Retried, WorkersLost int
	// Stored counts cache entries written, aliases included.
	Stored int
}

func (s CoordSummary) String() string {
	return fmt.Sprintf("%d/%d distinct jobs done (%d planned, %d failed, %d retried, %d workers lost), %d cache entries",
		s.Done, s.Distinct, s.Planned, s.Failed, s.Retried, s.WorkersLost, s.Stored)
}

// workArgs builds the work-subcommand argv every fleet worker — a
// coordinator's or a serve daemon's — is launched with. Experiment,
// scale and seed travel per job in its spec, so the argv carries only
// the shared resources a worker attaches to (the snapshot store
// directory). TestCoordWorkArgsRoundTrip and TestServeWorkArgsRoundTrip
// assert the round-trip through the work subcommand's flag set.
func workArgs(opts Options) []string {
	args := []string{"work"}
	if opts.Snapshots != nil {
		args = append(args, "-snapshot-dir", opts.Snapshots.Dir())
	}
	return args
}

// workerArgv builds one worker's launch argv from the template. See
// CoordOptions.WorkerCmd for the template grammar.
func workerArgv(tmpl string, workArgs []string) ([]string, error) {
	if tmpl == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("worker argv: %w", err)
		}
		return append([]string{exe}, workArgs...), nil
	}
	fields := strings.Fields(tmpl)
	if len(fields) == 0 {
		return nil, errors.New("blank -worker-cmd template")
	}
	var argv []string
	expanded := false
	for _, f := range fields {
		if f == "{args}" {
			argv = append(argv, workArgs...)
			expanded = true
			continue
		}
		argv = append(argv, f)
	}
	if !expanded {
		argv = append(argv, workArgs...)
	}
	return argv, nil
}

// fleetArgv is worker id's launch argv: workArgs through the tmpl
// launch template, with -fail-after injected when failAfter > 0 and id
// is failWorker.
func fleetArgv(opts Options, tmpl string, id, failWorker, failAfter int) ([]string, error) {
	args := workArgs(opts)
	if failAfter > 0 && id == failWorker {
		args = append(args, "-fail-after", strconv.Itoa(failAfter))
	}
	return workerArgv(tmpl, args)
}

// procLauncher is the one way a fleet launches `pimbench work`
// subprocesses, shared by Coordinate and the serve daemon: worker id
// starts from its fleetArgv with its stderr forwarded to stderr (nil
// discards it).
func procLauncher(opts Options, tmpl string, stderr io.Writer, failWorker, failAfter int) func(id int) (coord.Worker, error) {
	return func(id int) (coord.Worker, error) {
		argv, err := fleetArgv(opts, tmpl, id, failWorker, failAfter)
		if err != nil {
			return nil, err
		}
		w, err := coord.StartProc(id, argv, stderr)
		if err != nil {
			return nil, err
		}
		return w, nil
	}
}

// serialLog returns opts.Log behind a mutex (a no-op when nil): fleets
// and batches log from every worker goroutine, but Options.Log's
// contract does not require goroutine-safety.
func serialLog(opts Options) func(format string, args ...any) {
	if opts.Log == nil {
		return func(string, ...any) {}
	}
	var mu sync.Mutex
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		opts.Log(format, args...)
	}
}

// Coordinate is the coordinator half of `pimbench coord`: an
// execute-only fleet run of the named experiment ("all" for the suite)
// whose results land in opts.Cache as they finish. Reports stay with a
// later warm pass against the same cache. The run completes as long as
// at least one worker survives; a completed run returns nil even if
// workers died along the way.
func Coordinate(name string, opts Options, copts CoordOptions) (CoordSummary, error) {
	var sum CoordSummary
	if opts.Cache == nil {
		return sum, errors.New("coordinated run needs Options.Cache: results stream into the shared result cache")
	}
	planned, err := planFor(name, opts)
	if err != nil {
		return sum, err
	}
	groups, manifest := dedupPlan(planned)
	sum.Planned, sum.Distinct = len(manifest), len(groups)
	logf := serialLog(opts)

	// Every task carries the spec the coordinator planned from; the
	// workers re-derive the same plan from it.
	spec := &coord.JobSpec{Exp: strings.ToLower(name), Scale: string(opts.Scale), Seed: opts.Seed}
	tasks := make([]coord.Task, len(groups))
	keysOf := make(map[string][]string, len(groups))
	for i, g := range groups {
		tasks[i] = coord.Task{Key: g.keys[0], Fingerprint: g.fp, Spec: spec}
		keysOf[g.fp] = g.keys
	}

	// The streaming countdown listens on the same alias keys the cache
	// writes below fan out to, so artifacts complete exactly when their
	// last distinct simulation settles — including ones whose keys this
	// experiment shares with a sibling's fingerprint group.
	var stream *ReportStream
	if copts.Stream != nil {
		if stream, err = NewReportStream(name, opts, copts.Stream); err != nil {
			return sum, err
		}
	}

	// Pre-warm the snapshot store before any worker launches: the
	// biggest databases this plan references are published once by the
	// coordinator, so the fleet — sharing the store's filesystem —
	// loads them instead of racing to regenerate them per worker. The
	// already-built plan is reused; the suite is not planned twice.
	if opts.Snapshots != nil {
		if n := prewarmPlanned(opts, plannedIdentities(planned)); n > 0 {
			logf("coord: pre-warmed %d workload snapshot(s) into %s", n, opts.Snapshots.Dir())
		}
	}

	// onResult is serialized by the batch, so the summary counters and
	// the cache appends need no extra locking; streaming each result as
	// it settles is what bounds a mid-run kill's loss to in-flight jobs.
	onResult := func(done, total int, o coord.Outcome) {
		if o.Err != nil {
			logf("[%d/%d] %s FAILED: %v", done, total, o.Task.Key, o.Err)
			if stream != nil {
				for _, key := range keysOf[o.Task.Fingerprint] {
					stream.Settle(key, Result{}, o.Err)
				}
			}
			return
		}
		for _, key := range keysOf[o.Task.Fingerprint] {
			if err := opts.Cache.Store(key, o.Task.Fingerprint, o.Value); err != nil {
				logf("cache store %s: %v", key, err)
			} else {
				sum.Stored++
			}
		}
		if stream != nil {
			for _, key := range keysOf[o.Task.Fingerprint] {
				stream.Settle(key, o.Value, nil)
			}
		}
		logf("[%d/%d] %s done on worker %d (attempt %d)",
			done, total, o.Task.Key, o.Worker, o.Attempts)
	}

	launch := procLauncher(opts, copts.WorkerCmd, copts.WorkerStderr, copts.FailWorker, copts.FailAfter)
	b, err := runBatch(tasks, copts.Workers, launch, onResult, copts.Progress, logf)
	sum.Done, sum.Failed, sum.Retried, sum.WorkersLost = b.Done, b.Failed, b.Retried, b.WorkersLost
	return sum, err
}

// batch is one coordinated run on a coord.Pool: it serializes the
// settled outcomes, keeps the live fleet count and renders the
// progress footer.
type batch struct {
	pool     *coord.Pool
	onResult func(done, total int, o coord.Outcome)
	progress io.Writer
	start    time.Time
	finished chan struct{} // closed when the last task settles
	empty    chan struct{} // closed when the last worker is gone

	mu                      sync.Mutex
	total, size, live, lost int
	done, failed, footerLen int
	errs                    []error
}

// runBatch runs tasks to completion on a fresh pool of at most
// `workers` workers (<= 0 means GOMAXPROCS; never more than the task
// count) and closes it. onResult, when non-nil, observes each settled
// task serially, in settlement order. The fleet only shrinks: a worker
// that fails to launch or dies counts in WorkersLost and is not
// replaced, and once the last one is gone every queued task fails.
// progress, when non-nil, receives the live jobs-done/ETA footer and a
// final accounting line. The error names each failed task and failed
// launch; a completed batch whose workers died mid-run returns nil.
func runBatch(tasks []coord.Task, workers int, launch func(id int) (coord.Worker, error),
	onResult func(done, total int, o coord.Outcome), progress io.Writer,
	logf func(format string, args ...any)) (CoordSummary, error) {
	if len(tasks) == 0 {
		return CoordSummary{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	b := &batch{onResult: onResult, progress: progress, start: time.Now(),
		finished: make(chan struct{}), empty: make(chan struct{}),
		total: len(tasks), size: workers}
	b.pool = coord.NewPool(coord.PoolOptions{Launch: launch, OnWorkerLost: b.workerLost, Log: logf})

	// The whole fleet launches before the first submission, so no
	// worker can die while launches are still pending and the live
	// count is exact from here on.
	var launched sync.WaitGroup
	for i := 0; i < workers; i++ {
		launched.Add(1)
		go func() {
			defer launched.Done()
			_, err := b.pool.AddWorker()
			b.mu.Lock()
			defer b.mu.Unlock()
			if err != nil {
				logf("coord: %v", err)
				b.lost++
				b.errs = append(b.errs, err)
				return
			}
			b.live++
		}()
	}
	launched.Wait()
	if b.live == 0 {
		close(b.empty)
	}

	for _, t := range tasks {
		if err := b.pool.Submit(t, b.settle); err != nil {
			b.settle(coord.Outcome{Task: t, Err: err, Worker: -1})
		}
	}
	select {
	case <-b.finished:
	case <-b.empty:
		// The pool keeps tasks queued on an empty fleet, waiting for a
		// join that a batch never makes; closing it fails them. With no
		// worker left, nothing is in flight.
		b.pool.Close()
		<-b.finished
	}
	b.pool.Close()

	b.mu.Lock()
	defer b.mu.Unlock()
	sum := CoordSummary{Done: b.done - b.failed, Failed: b.failed,
		Retried: b.pool.Stats().Retried, WorkersLost: b.lost}
	if b.progress != nil {
		b.footer(fmt.Sprintf("coord: %d/%d jobs done (%d failed, %d retried, %d workers lost) in %s",
			sum.Done, b.total, sum.Failed, sum.Retried, sum.WorkersLost,
			time.Since(b.start).Round(time.Millisecond)))
		fmt.Fprintln(b.progress)
	}
	return sum, errors.Join(b.errs...)
}

// workerLost is the pool's OnWorkerLost hook. It only signals the
// last loss: the pool is closed by runBatch, because Close waits for
// every worker loop, the one running this hook included.
func (b *batch) workerLost(int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.live--
	b.lost++
	if b.live == 0 {
		close(b.empty)
	}
}

// settle is every task's done callback.
func (b *batch) settle(o coord.Outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.done++
	if b.done == b.total {
		defer close(b.finished)
	}
	if o.Err != nil {
		b.failed++
		b.errs = append(b.errs, fmt.Errorf("%s: %w", o.Task.Key, o.Err))
	}
	if b.onResult != nil {
		b.onResult(b.done, b.total, o)
	}
	if b.progress == nil {
		return
	}
	eta := "--"
	if b.done < b.total {
		per := time.Since(b.start) / time.Duration(b.done)
		eta = (per * time.Duration(b.total-b.done)).Round(time.Second).String()
	}
	b.footer(fmt.Sprintf("coord: %d/%d jobs (%d failed, %d retried), %d/%d workers, ETA %s",
		b.done, b.total, b.failed, b.pool.Stats().Retried, b.live, b.size, eta))
}

// footer redraws the progress line in place, padding over a longer
// previous one. Callers hold mu.
func (b *batch) footer(line string) {
	pad := ""
	if n := b.footerLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	b.footerLen = len(line)
	fmt.Fprintf(b.progress, "\r%s%s", line, pad)
}
