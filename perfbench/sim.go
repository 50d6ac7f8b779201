package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bulkpim"
	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/resultcache"
	"bulkpim/internal/runner"
	"bulkpim/internal/snapshot"
	"bulkpim/internal/system"
	"bulkpim/internal/workload/litmus"
	"bulkpim/internal/workload/tpch"
	"bulkpim/internal/workload/ycsb"
)

// fig7Models are the six variants of Figs. 7 and 8.
var fig7Models = []core.Model{core.Naive, core.SWFlush, core.Atomic, core.Store, core.Scope, core.ScopeRelaxed}

// point is one simulated grid point. run is the benchmark's own timed
// path through the layers; ship is the shipped entry point the
// correctness gate compares it with.
type point struct {
	key string
	// fingerprint content-addresses the point the way the shipped
	// planner does: its system config and workload identity.
	fingerprint string
	run         func(tr *tracer, parent int, req string) (system.Result, uint64, error)
	ship        func() (system.Result, error)
	// proposed marks a point whose model must show no violation;
	// functional a point that checks every value it reads.
	proposed, functional bool
}

// simulate mirrors ycsb.Run and tpch.Run, timing each call: the
// workload's SystemConfig, system.New, InitBacking when functional,
// the thread constructor, and System.Run. It returns the kernel's event
// count beside the result.
func simulate(tr *tracer, parent int, req, kind string, cfg system.Config,
	initBacking func(*system.System), threads func(*system.System) []cpu.Thread) (system.Result, uint64, error) {
	var s *system.System
	tr.do("system.New", parent, req, func() { s = system.New(cfg) })
	if cfg.Functional {
		tr.do(kind+".InitBacking", parent, req, func() { initBacking(s) })
	}
	var ths []cpu.Thread
	tr.do(kind+".Threads", parent, req, func() { ths = threads(s) })
	var r system.Result
	var err error
	tr.do("system.Run", parent, req, func() { r, err = s.Run(ths) })
	return r, s.K.Fired(), err
}

func ycsbPoint(w *ycsb.Workload, m core.Model) point {
	base := system.Default()
	base.Model = m
	return point{
		key:         fmt.Sprintf("%s/records=%d/model=%s", prefix("ycsb", w.P.Verify), w.P.Records, m),
		fingerprint: resultcache.Fingerprint(base, fmt.Sprintf("ycsb:%+v", w.P)),
		proposed:    isProposed(m),
		functional:  w.P.Verify,
		run: func(tr *tracer, parent int, req string) (system.Result, uint64, error) {
			cfg := w.SystemConfig(base)
			return simulate(tr, parent, req, "ycsb", cfg,
				func(s *system.System) { w.InitBacking(s.Backing, s.Scopes) }, w.Threads)
		},
		ship: func() (system.Result, error) { return ycsb.Run(w, base) },
	}
}

func tpchPoint(w *tpch.Workload, scale float64, m core.Model) point {
	base := system.Default()
	base.Model = m
	return point{
		key: fmt.Sprintf("%s/%s/model=%s", prefix("tpch", w.Verify), w.Q.Name, m),
		fingerprint: resultcache.Fingerprint(base,
			fmt.Sprintf("tpch:%s:threads=%d:scale=%g:verify=%v", w.Q.Name, w.Threads, scale, w.Verify)),
		proposed:   isProposed(m),
		functional: w.Verify,
		run: func(tr *tracer, parent int, req string) (system.Result, uint64, error) {
			cfg := w.SystemConfig(base)
			return simulate(tr, parent, req, "tpch", cfg,
				func(s *system.System) { w.InitBacking(s.Backing, s.Scopes) }, w.BuildThreads)
		},
		ship: func() (system.Result, error) { return tpch.Run(w, base) },
	}
}

// litmusPoint runs the Fig. 1 adversary sweep for one model, with
// happens-before tracking, folding the outcomes into a Result.
func litmusPoint(m core.Model) point {
	sweep := func() (system.Result, error) {
		outs, err := litmus.SweepFig1(m, litmus.DefaultSweep())
		if err != nil {
			return system.Result{}, err
		}
		stale, cycle := litmus.Vulnerable(outs)
		incomplete := false
		for _, o := range outs {
			incomplete = incomplete || !o.Completed
		}
		return system.Result{Stats: map[string]float64{
			"litmus.stale": boolStat(stale), "litmus.cycle": boolStat(cycle), "litmus.incomplete": boolStat(incomplete)}}, nil
	}
	return point{
		key:        "litmus/fig1/model=" + m.String(),
		proposed:   isProposed(m),
		functional: true,
		run: func(tr *tracer, parent int, req string) (r system.Result, _ uint64, err error) {
			tr.do("litmus.SweepFig1", parent, req, func() { r, err = sweep() })
			return r, 0, err
		},
		ship: sweep,
	}
}

// prefix names a point family the way the shipped plans key it, with
// functional points apart.
func prefix(family string, functional bool) string {
	if functional {
		return family + "-verify"
	}
	return family
}

func boolStat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func isProposed(m core.Model) bool {
	for _, p := range core.ProposedModels() {
		if p == m {
			return true
		}
	}
	return false
}

// simSizes is a batch workload's grid.
type simSizes struct {
	ycsbRecords []int
	ycsbOps     int
	ycsbVerify  bool
	ycsbModels  []core.Model
	queries     []string // empty: every Table IV query
	tpchScale   float64
	tpchVerify  bool
	tpchModels  []core.Model
	litmus      bool
	// experiment is the shipped experiment whose plan at scale must
	// hold every point, fingerprint and all; empty for the functional
	// grid.
	experiment string
	scale      bulkpim.Scale
}

func sizesFor(name string, tiny bool) simSizes {
	switch name {
	case "ycsb-scan":
		// Fig. 7 at quick scale: Table III YCSB, 16 operations.
		if tiny {
			return simSizes{ycsbRecords: []int{100_000}, ycsbOps: 16, ycsbModels: []core.Model{core.Naive, core.Scope},
				experiment: "fig7", scale: bulkpim.ScaleQuick}
		}
		return simSizes{ycsbRecords: []int{100_000, 500_000, 2_000_000, 8_000_000}, ycsbOps: 16, ycsbModels: fig7Models,
			experiment: "fig7", scale: bulkpim.ScaleQuick}
	case "tpch-query":
		// Fig. 8 at medium scale: 19 queries at 0.1 of Table IV's scopes,
		// where the PIM module's share of host time is largest.
		if tiny {
			return simSizes{queries: []string{"q11", "q17"}, tpchScale: 0.1, tpchModels: []core.Model{core.Naive, core.Scope},
				experiment: "fig8", scale: bulkpim.ScaleMedium}
		}
		return simSizes{tpchScale: 0.1, tpchModels: fig7Models, experiment: "fig8", scale: bulkpim.ScaleMedium}
	default: // functional-verify
		if tiny {
			return simSizes{ycsbRecords: []int{100_000}, ycsbOps: 4, ycsbVerify: true,
				ycsbModels: []core.Model{core.Scope}, litmus: true}
		}
		return simSizes{ycsbRecords: []int{100_000}, ycsbOps: 4, ycsbVerify: true, ycsbModels: core.ProposedModels(),
			queries: []string{"q1"}, tpchScale: 0.01, tpchVerify: true, tpchModels: []core.Model{core.Scope}, litmus: true}
	}
}

// simWorkload is a batch sweep: every round runs the whole grid through
// runner.RunJobs at the benchmark's parallelism, each point on a fresh
// system, so every point starts with empty caches.
type simWorkload struct {
	c      config
	sizes  simSizes
	ycsbs  []*ycsb.Workload
	points []point

	first  map[string]system.Result // first round's results
	events map[string]uint64
	jobs   []jobStat // every job of the traced rounds
}

type jobStat struct{ wall, wait time.Duration }

func newSimWorkload(c config) workload {
	return &simWorkload{c: c, sizes: sizesFor(c.workload, c.tiny)}
}

func (s *simWorkload) setupReps() int {
	if len(s.sizes.ycsbRecords) > 1 {
		return 5 // cold generation of the large databases takes about a second
	}
	return 9 // milliseconds each, so repeat more to steady the median
}

// setup plans the grid through the shipped planner, checking that
// every point is the shipped experiment's point, and generates every
// input cold: the YCSB databases (operation sequence, Zipf tables and
// scan match caches) and the TPC-H query sections.
func (s *simWorkload) setup(tr *tracer) error {
	z := s.sizes
	var planned map[string]string // key -> fingerprint
	if z.experiment != "" {
		var jobs []bulkpim.PlannedJob
		var err error
		tr.do("bulkpim.Manifest", 0, "", func() {
			jobs, err = bulkpim.Manifest(z.experiment, bulkpim.Options{Scale: z.scale, Seed: s.c.seed})
		})
		if err != nil {
			return err
		}
		planned = map[string]string{}
		for _, j := range jobs {
			planned[j.Key] = j.Fingerprint
		}
	}
	s.ycsbs = nil
	var pts []point
	// As in the shipped sweeps, one database per record count, its
	// operation sequence drawn from the seed, is shared by every model.
	for _, rec := range z.ycsbRecords {
		p := ycsb.DefaultParams(rec)
		p.Operations = z.ycsbOps
		p.Seed = s.c.seed
		p.Verify = z.ycsbVerify
		var w *ycsb.Workload
		tr.do("ycsb.gen", 0, "", func() {
			w = ycsb.New(p)
			w.Precompute()
		})
		s.ycsbs = append(s.ycsbs, w)
		for _, m := range z.ycsbModels {
			pts = append(pts, ycsbPoint(w, m))
		}
	}
	if z.tpchScale > 0 {
		qs := tpch.Queries()
		if len(z.queries) > 0 {
			qs = nil
			for _, n := range z.queries {
				q, ok := tpch.QueryByName(n)
				if !ok {
					return fmt.Errorf("unknown query %s", n)
				}
				qs = append(qs, q)
			}
		}
		for _, q := range qs {
			var w *tpch.Workload
			tr.do("tpch.gen", 0, "", func() { w = tpch.NewWorkload(q, 4, z.tpchScale, z.tpchVerify) })
			for _, m := range z.tpchModels {
				pts = append(pts, tpchPoint(w, z.tpchScale, m))
			}
		}
	}
	if z.litmus {
		for _, m := range core.AllVariants() {
			pts = append(pts, litmusPoint(m))
		}
	}
	for _, p := range pts {
		if fp, ok := planned[p.key]; planned != nil && (!ok || fp != p.fingerprint) {
			return fmt.Errorf("point %s is not the shipped %s/%s plan's point (fingerprint %s, planned %q)",
				p.key, z.experiment, z.scale, p.fingerprint, fp)
		}
	}
	s.points = pts
	return nil
}

func (s *simWorkload) round(tr *tracer, o *outcome) []time.Duration {
	rid := tr.begin("round", 0, "")
	defer tr.end(rid)
	submitted := time.Now()
	waits := make([]time.Duration, len(s.points))
	events := make([]uint64, len(s.points))
	jobs := make([]runner.Job[system.Result], len(s.points))
	batch := tr.begin("runner.RunJobs", rid, "")
	for i, p := range s.points {
		jobs[i] = runner.Job[system.Result]{Key: p.key, Run: func() (system.Result, error) {
			waits[i] = time.Since(submitted)
			id := tr.begin("job", batch, p.key)
			defer tr.end(id)
			r, ev, err := p.run(tr, id, p.key)
			events[i] = ev
			return r, err
		}}
	}
	rs := runner.RunJobs(jobs, runner.Options[system.Result]{Parallelism: batchParallelism})
	tr.end(batch)

	lat := make([]time.Duration, len(rs))
	firstRound := s.first == nil
	if firstRound {
		s.first = map[string]system.Result{}
		s.events = map[string]uint64{}
	}
	for i, r := range rs {
		// A point's latency is its own run time, so the percentiles
		// describe the grid's point times whatever their order.
		lat[i] = r.Wall
		o.attempted++
		if tr != nil {
			s.jobs = append(s.jobs, jobStat{wall: r.Wall, wait: waits[i]})
		}
		if r.Err != nil {
			o.fail("%s: %v", r.Key, r.Err)
			continue
		}
		if firstRound {
			s.first[r.Key] = r.Value
			s.events[r.Key] = events[i]
		} else if digest(r.Value) != digest(s.first[r.Key]) {
			o.fail("%s: result differs between rounds", r.Key)
		}
	}
	return lat
}

// traceExtras round-trips the largest YCSB database through the
// snapshot store.
func (s *simWorkload) traceExtras(tr *tracer, o *outcome) error {
	if len(s.ycsbs) == 0 {
		return nil
	}
	w := s.ycsbs[len(s.ycsbs)-1]
	store, err := snapshot.Open(filepath.Join(s.c.workDir(), "snapshots"))
	if err != nil {
		return err
	}
	identity := fmt.Sprintf("ycsb:%+v", w.P)
	id := snapshot.ID(identity)
	var payload []byte
	tr.do("snapshot.Save", 0, "", func() {
		if payload, err = w.Snapshot(); err == nil {
			err = store.Save(id, identity, payload)
		}
	})
	if err != nil {
		return fmt.Errorf("snapshot save: %w", err)
	}
	tr.do("snapshot.Load", 0, "", func() {
		data, ok := store.Load(id)
		if !ok {
			err = fmt.Errorf("snapshot %s not found after save", id)
			return
		}
		_, err = ycsb.FromSnapshot(data, w.P)
	})
	if err != nil {
		return fmt.Errorf("snapshot load: %w", err)
	}
	o.values["snapshot.save_s"] = tr.total("snapshot.Save").Seconds()
	o.values["snapshot.load_s"] = tr.total("snapshot.Load").Seconds()
	o.values["snapshot.bytes"] = float64(len(payload))
	return os.RemoveAll(store.Dir())
}

// layerMetrics fills the simulator and runner metrics, per round.
func (s *simWorkload) layerMetrics(tr *tracer, o *outcome, rounds int) {
	n := float64(max(rounds, 1))
	v := o.values
	perRound := func(name, span string) { v[name] = tr.total(span).Seconds() / n }
	perRound("system.run_s", "system.Run")
	perRound("system.new_s", "system.New")
	perRound("ycsb.init_backing_s", "ycsb.InitBacking")
	perRound("tpch.init_backing_s", "tpch.InitBacking")
	perRound("litmus.run_s", "litmus.SweepFig1")
	// Generation is set-up: one traced generation ran before the rounds.
	v["ycsb.gen_s"] = tr.total("ycsb.gen").Seconds()
	v["tpch.gen_s"] = tr.total("tpch.gen").Seconds()

	var events uint64
	for _, e := range s.events {
		events += e
	}
	v["sim.events"] = float64(events)
	if events > 0 {
		v["sim.host_ns_per_event"] = v["system.run_s"] * 1e9 / float64(events)
	}
	// Per-layer name -> Result.Stats key, summed or averaged over points.
	sums := map[string]string{
		"cpu.instrs":            "cpu.instrs",
		"cpu.stalls":            "cpu.stalls",
		"cpu.pim_issued":        "cpu.pim_issued",
		"cache.llc_hits":        "llc.hits",
		"cache.llc_misses":      "llc.misses",
		"cache.llc_scans":       "llc.scan_count",
		"cache.lines_flushed":   "llc.lines_flushed",
		"memctrl.loads":         "mc.loads",
		"memctrl.writes":        "mc.writes",
		"memctrl.pim_forwarded": "mc.pim_forwarded",
		"pim.ops_executed":      "pim.ops_executed",
	}
	means := map[string]string{
		"cache.sbv_skip_ratio":   "llc.sbv_skip_ratio",
		"cache.sb_hit_rate":      "llc.sb_hit_rate",
		"memctrl.queue_len_mean": "mc.queue_len_mean",
		"pim.buffer_len_mean":    "pim.buffer_len_mean",
		"pim.unique_scopes_mean": "pim.unique_scopes_mean",
	}
	var simPoints float64
	for _, p := range s.points {
		r := s.first[p.key]
		if _, ok := r.Stats["cpu.instrs"]; !ok {
			continue // litmus points carry verdicts, not machine statistics
		}
		simPoints++
		v["system.sim_cycles"] += float64(r.Cycles)
		if p.functional {
			v["functional.violations"] += float64(r.Violations)
		}
		for name, key := range sums {
			v[name] += r.Stats[key]
		}
		for name, key := range means {
			v[name] += r.Stats[key]
		}
		v["pim.peak_buffer"] = max(v["pim.peak_buffer"], r.Stats["pim.peak_buffer"])
	}
	for name := range means {
		if simPoints > 0 {
			v[name] /= simPoints
		}
	}

	var busy, wait, wallMax time.Duration
	for _, j := range s.jobs {
		busy += j.wall
		wait += j.wait
		wallMax = max(wallMax, j.wall)
	}
	v["runner.jobs"] = float64(len(s.points))
	v["runner.busy_s"] = busy.Seconds() / n
	v["runner.wait_s"] = wait.Seconds() / n
	v["runner.job_wall_max_s"] = wallMax.Seconds()
}

func (s *simWorkload) close() {}
