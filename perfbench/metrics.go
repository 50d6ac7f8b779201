package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, printed for every workload.
// A round is one unit of the timed phase: a full sweep of the
// workload's grid, or one fixed batch of requests on serve-mixed. A
// job is one grid point or one HTTP request.
var endToEnd = []metricDef{
	{"wall_s", "s"},          // median wall time of one round
	{"setup_s", "s"},         // median cold set-up before timing
	{"req_per_s", "1/s"},     // jobs settled per second of the timed phase
	{"latency_p50_ms", "ms"}, // job latency: a request's submit to settle, a point's own run time
	{"latency_p99_ms", "ms"},
	{"peak_heap_mb", "MB"}, // peak live Go heap during the timed phase
}

// perLayer are the traced run's metrics. Counts and times are per
// round unless the name says otherwise; a layer a workload does not
// call reads 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"system.run_s", "s"},
	{"system.new_s", "s"},
	{"system.sim_cycles", "cycles"},
	{"cpu.instrs", "count"},
	{"cpu.stalls", "count"},
	{"cpu.pim_issued", "count"},
	{"cache.llc_hits", "count"},
	{"cache.llc_misses", "count"},
	{"cache.llc_scans", "count"},
	{"cache.lines_flushed", "count"},
	{"cache.sbv_skip_ratio", "ratio"},
	{"cache.sb_hit_rate", "ratio"},
	{"memctrl.loads", "count"},
	{"memctrl.writes", "count"},
	{"memctrl.pim_forwarded", "count"},
	{"memctrl.queue_len_mean", "count"},
	{"pim.ops_executed", "count"},
	{"pim.buffer_len_mean", "count"},
	{"pim.unique_scopes_mean", "count"},
	{"pim.peak_buffer", "count"},
	{"ycsb.gen_s", "s"},
	{"tpch.gen_s", "s"},
	{"snapshot.save_s", "s"},
	{"snapshot.load_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"ycsb.init_backing_s", "s"},
	{"tpch.init_backing_s", "s"},
	{"litmus.run_s", "s"},
	{"functional.violations", "count"},
	{"runner.jobs", "count"},
	{"runner.busy_s", "s"},
	{"runner.wait_s", "s"},
	{"runner.job_wall_max_s", "s"},
	{"gc.alloc_mb", "MB"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"resultcache.open_s", "s"},
	{"resultcache.lookup_us", "us"},
	{"resultcache.store_us", "us"},
	{"resultcache.hit_ratio", "ratio"},
	{"serve.hit_latency_p50_ms", "ms"},
	{"serve.artifact_latency_p50_ms", "ms"},
	{"serve.miss_latency_p50_ms", "ms"},
	{"serve.settled_in_submit_ratio", "ratio"},
	{"plan.manifest_s", "s"},
	{"coord.retries", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

func init() {
	for _, p := range profPackages {
		perLayer = append(perLayer, metricDef{"prof." + p, "ratio"})
	}
}

// outcome is one run's measurements and correctness verdict.
type outcome struct {
	workload  string
	values    map[string]float64
	samples   map[string]int // sample count behind a percentile metric
	attempted int
	failed    int
	errs      []string
	trace     bool
}

func newOutcome(workload string, trace bool) *outcome {
	return &outcome{workload: workload, values: map[string]float64{}, samples: map[string]int{}, trace: trace}
}

// fail records a correctness failure; each one counts as a failed job.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool { return len(o.errs) == 0 }

func (o *outcome) defs() []metricDef {
	if o.trace {
		return perLayer
	}
	return endToEnd
}

// lines renders the human-readable report printed before the result.
func (o *outcome) lines() []string {
	out := []string{fmt.Sprintf("workload %s: attempted %d, failed %d", o.workload, o.attempted, o.failed)}
	for _, d := range o.defs() {
		line := fmt.Sprintf("%-32s %14.6g %s", d.name, o.values[d.name], d.unit)
		if n, ok := o.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		out = append(out, line)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (o *outcome) result() result {
	r := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	for _, d := range o.defs() {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r
}

// median returns the middle value of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// heapSampler records the peak live Go heap while it runs: the heap a
// GC cycle marked live, which unlike the heap in use does not depend on
// how much garbage the sample happened to catch.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// gcSnapshot is the runtime's cumulative GC accounting at one instant.
type gcSnapshot struct{ allocBytes, cycles, gcCPU, totalCPU float64 }

func readGC() gcSnapshot {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSnapshot{
		allocBytes: float64(s[0].Value.Uint64()),
		cycles:     float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// setGC records the GC metrics between two snapshots over rounds rounds.
func (o *outcome) setGC(from, to gcSnapshot, rounds int) {
	n := float64(max(rounds, 1))
	o.values["gc.alloc_mb"] = (to.allocBytes - from.allocBytes) / (1 << 20) / n
	o.values["gc.cycles"] = (to.cycles - from.cycles) / n
	if cpu := to.totalCPU - from.totalCPU; cpu > 0 {
		o.values["gc.cpu_frac"] = (to.gcCPU - from.gcCPU) / cpu
	}
}
