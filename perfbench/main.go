// Command perfbench is the repository benchmark: it runs one workload
// of the simulator or of the serving harness for a fixed time, checks
// that every output is correct, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as one JSON object on the last
// line of standard output.
//
//	go run . -workload ycsb-scan -seed 1 -seconds 10 -trace 0
//
// The benchmark measures every layer from outside: it times its own
// calls into the packages' exported functions and reads the counters
// those packages already expose. See README.md for the workloads, the
// metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	// defaultSeed is the seed the committed reference digests were
	// recorded at; every simulated point is checked against them.
	defaultSeed = 1
	// heldOutSeed is never used while tuning a change; later claims are
	// re-checked on it.
	heldOutSeed = 7
	// batchParallelism is the batch workloads' closed-loop concurrency:
	// one grid point in flight at a time. Two in flight on a two-CPU
	// host spread the round times of repeated runs about three times
	// wider, since points then compete with each other and with GC.
	batchParallelism = 1
	// serveClients is serve-mixed's closed-loop client count, and its
	// daemon's local worker count.
	serveClients = 2
)

// config is one benchmark run's inputs.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// root is the repository checkout; reference and golden files are
	// read from it and scratch files written below root/.bench_build.
	root string
	// reference is the digest file checked at the default seed.
	reference string
	// golden is the Fig. 1 report the litmus outcomes must match.
	golden string
	// tiny shrinks every grid to a few points (the self-test).
	tiny bool
}

func (c config) workDir() string {
	return filepath.Join(c.root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", c.workload, c.seed, os.Getpid()))
}

func main() {
	var c config
	var seconds int
	var trace int
	var record, setupOnce bool
	flag.StringVar(&c.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	flag.Uint64Var(&c.seed, "seed", defaultSeed, fmt.Sprintf(
		"input seed; the reference digests are at %d, and %d is held out for re-checking claims", defaultSeed, heldOutSeed))
	flag.IntVar(&seconds, "seconds", 10, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&c.root, "root", ".", "repository checkout")
	flag.BoolVar(&record, "record-reference", false, "record the reference digests from the shipped entry points and exit")
	flag.BoolVar(&setupOnce, "setup-only", false, "time one cold set-up and print its seconds")
	flag.Parse()
	if c.seed == 0 {
		c.seed = 1 // as the shipped planner reads seed 0 (Options.Seed)
	}
	c.seconds = time.Duration(seconds) * time.Second
	c.trace = trace == 1
	c.reference = filepath.Join(c.root, "perfbench", "reference.json")
	c.golden = filepath.Join(c.root, "testdata", "fig1_smoke.golden")

	if record {
		if err := recordReference(c); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[c.workload]; !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join(c.root, "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: -root must be the repository checkout:", err)
		os.Exit(2)
	}
	if setupOnce {
		if err := setupOnly(c); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	out, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range out.lines() {
		fmt.Println(line)
	}
	js, err := json.Marshal(out.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
	if !out.correct() {
		for _, e := range out.errs {
			fmt.Fprintln(os.Stderr, "perfbench: incorrect:", e)
		}
		os.Exit(1)
	}
}
