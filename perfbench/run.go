package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark workload.
type workload interface {
	// setupReps is how often set-up runs; setup_s is the median.
	setupReps() int
	// setup builds the inputs cold, replacing any earlier build.
	setup(tr *tracer) error
	// round runs one unit of the timed phase, counting its jobs and
	// failures in o, and returns each job's latency.
	round(tr *tracer, o *outcome) []time.Duration
	// traceExtras times the layer calls made once per traced run.
	traceExtras(tr *tracer, o *outcome) error
	// layerMetrics derives the per-layer metrics of rounds traced rounds.
	layerMetrics(tr *tracer, o *outcome, rounds int)
	// verify is the correctness gate, run after the timed phase.
	verify(o *outcome)
	close()
}

var workloads = map[string]func(config) workload{
	"ycsb-scan":         newSimWorkload,
	"tpch-query":        newSimWorkload,
	"functional-verify": newSimWorkload,
	"serve-mixed":       newServeWorkload,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// phase is one timed phase: rounds back to back for about the given
// time, at least one.
type phase struct {
	rounds  []time.Duration
	lat     []time.Duration
	elapsed time.Duration
	heapMB  float64 // median over rounds of the round's peak live heap
}

func measure(d time.Duration, w workload, tr *tracer, o *outcome) phase {
	var p phase
	var heaps []float64
	start := time.Now()
	for {
		heap := startHeapSampler()
		t := time.Now()
		lat := w.round(tr, o)
		last := time.Since(t)
		heaps = append(heaps, heap.finish())
		p.rounds = append(p.rounds, last)
		p.lat = append(p.lat, lat...)
		if time.Since(start)+last/2 >= d {
			break
		}
	}
	p.elapsed = time.Since(start)
	p.heapMB = median(heaps)
	return p
}

func run(c config) (*outcome, error) {
	o := newOutcome(c.workload, c.trace)
	if err := os.MkdirAll(c.workDir(), 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.workDir())
	w := workloads[c.workload](c)
	defer w.close()

	// Set-up memoizes across calls (the Zipf zeta sums), so each
	// repetition runs cold in a fresh process; the last runs here.
	var setups []time.Duration
	for i := 1; i < w.setupReps() && !c.tiny; i++ {
		d, err := childSetup(c)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
	}
	// A traced run traces and profiles its own set-up too, so the cold
	// generation shows in the per-layer metrics.
	var tr *tracer
	prof := profile{path: filepath.Join(c.workDir(), "cpu.pprof")}
	if c.trace {
		tr = newTracer()
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	t := time.Now()
	err := w.setup(tr)
	setups = append(setups, time.Since(t))
	if c.trace {
		if perr := prof.stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.values["setup_s"] = median(seconds(setups))
	o.samples["setup_s"] = len(setups)

	d := c.seconds
	if c.trace {
		d /= 2 // half untraced, half traced
	}
	plain := measure(d, w, nil, o)
	o.values["wall_s"] = median(seconds(plain.rounds))
	o.values["req_per_s"] = float64(len(plain.lat)) / plain.elapsed.Seconds()
	o.values["latency_p50_ms"] = quantile(millis(plain.lat), 0.50)
	o.values["latency_p99_ms"] = quantile(millis(plain.lat), 0.99)
	o.samples["wall_s"] = len(plain.rounds)
	o.samples["latency_p50_ms"] = len(plain.lat)
	o.samples["latency_p99_ms"] = len(plain.lat)
	o.values["peak_heap_mb"] = plain.heapMB

	if c.trace {
		if err := traced(c, w, o, tr, &prof, d); err != nil {
			return nil, err
		}
	}
	w.verify(o)
	return o, nil
}

// traced is the traced half of a -trace 1 run: a timed phase recording
// spans under a CPU profile, from which the per-layer metrics are
// derived. The spans are written below .bench_build/spans.
func traced(c config, w workload, o *outcome, tr *tracer, prof *profile, d time.Duration) error {
	if err := prof.start(); err != nil {
		return err
	}
	gc0 := readGC()
	ph := measure(d, w, tr, o)
	gc1 := readGC()
	err := w.traceExtras(tr, o)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	for pkg, v := range prof.shares() {
		o.values["prof."+pkg] = v
	}
	o.setGC(gc0, gc1, len(ph.rounds))
	w.layerMetrics(tr, o, len(ph.rounds))
	o.values["trace.overhead_frac"] = median(seconds(ph.rounds))/o.values["wall_s"] - 1
	o.values["trace.spans"] = float64(tr.count())
	path, err := tr.write(filepath.Join(c.root, ".bench_build", "spans"), fmt.Sprintf("%s-seed%d", c.workload, c.seed))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}

// childSetup times one cold set-up in a fresh process.
func childSetup(c config) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-root", c.root, "-workload", c.workload,
		"-seed", strconv.FormatUint(c.seed, 10), "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up process output %q: %w", out, err)
	}
	return time.Duration(secs * float64(time.Second)), nil
}

// setupOnly is the child side of childSetup: one set-up, its time in
// seconds on standard output.
func setupOnly(c config) error {
	if err := os.MkdirAll(c.workDir(), 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(c.workDir())
	w := workloads[c.workload](c)
	defer w.close()
	t := time.Now()
	if err := w.setup(nil); err != nil {
		return err
	}
	fmt.Println(strconv.FormatFloat(time.Since(t).Seconds(), 'g', -1, 64))
	return nil
}
