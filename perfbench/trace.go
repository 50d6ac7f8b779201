package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"` // id of the causing span; 0 for a root
	Req    string `json:"req,omitempty"`    // shared by every span of one job or request
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, req string, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// total returns the summed duration of the closed spans named name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus the part of its interval its children cover.
type spanSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) summary() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]spanSummary{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(children[i+1], s.Start, s.End)
		sm := out[s.Name]
		sm.Count++
		sm.TotalS += time.Duration(dur).Seconds()
		sm.SelfS += time.Duration(self).Seconds()
		out[s.Name] = sm
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var n, cur int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			n += e - s
			cur = e
		}
	}
	return n
}

// write saves the spans and their summary as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	sum := t.summary()
	t.mu.Lock()
	doc := struct {
		Summary map[string]spanSummary `json:"summary"`
		Spans   []span                 `json:"spans"`
	}{sum, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// profPackages are the CPU-profile buckets: the repository's packages
// by last path element, "other" for any other package of the module,
// "bench" for the benchmark's own code and "runtime" for samples with
// neither (scheduler, GC, the standard library's own goroutines).
var profPackages = []string{
	"sim", "cpu", "cache", "noc", "memctrl", "pim", "core", "mem", "system", "pimdb",
	"ycsb", "tpch", "litmus",
	"runner", "resultcache", "snapshot", "coord", "serve", "report", "bulkpim",
	"other", "bench", "runtime",
}

// profile accumulates the CPU samples of one or more profiled spells,
// bucketed by package. Each spell's profile is written to path and
// read back through `go tool pprof -traces`.
type profile struct {
	path   string
	f      *os.File
	counts map[string]int64
}

func (p *profile) start() error {
	f, err := os.Create(p.path)
	if err != nil {
		return err
	}
	p.f = f
	return pprof.StartCPUProfile(f)
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", "-unit=ns", p.path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(p.path))
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	stacks, err := parseTraces(string(out))
	if err != nil {
		return err
	}
	if p.counts == nil {
		p.counts = map[string]int64{}
	}
	for _, st := range stacks {
		p.counts[bucket(st.funcs)] += st.value
	}
	return nil
}

// shares returns each bucket's share of the sampled CPU time.
func (p *profile) shares() map[string]float64 {
	var total int64
	for _, n := range p.counts {
		total += n
	}
	out := map[string]float64{}
	for _, pkg := range profPackages {
		if total > 0 {
			out[pkg] = float64(p.counts[pkg]) / float64(total)
		}
	}
	return out
}

// bucket assigns a stack (innermost frame first) to its innermost
// frame in the module, else to the benchmark, else to the runtime.
func bucket(funcs []string) string {
	bench := false
	for _, f := range funcs {
		if pkg, ok := modulePackage(f); ok {
			return pkg
		}
		if strings.HasPrefix(f, "main.") {
			bench = true
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}

// modulePackage maps a function symbol of the bulkpim module to its
// bucket name.
func modulePackage(fn string) (string, bool) {
	if !strings.HasPrefix(fn, "bulkpim/") && !strings.HasPrefix(fn, "bulkpim.") {
		return "", false
	}
	path, _, _ := strings.Cut(fn, "[") // type arguments may hold other paths
	if i := strings.LastIndex(path, "/"); i >= 0 {
		if j := strings.Index(path[i:], "."); j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.Index(path, "."); j >= 0 {
		path = path[:j]
	}
	if path == "bulkpim" {
		return "bulkpim", true
	}
	last := path[strings.LastIndex(path, "/")+1:]
	for _, p := range profPackages {
		if p == last && strings.HasPrefix(path, "bulkpim/internal/") {
			return p, true
		}
	}
	return "other", true
}

// stack is one profile sample: function names innermost first, and
// its sampled CPU time.
type stack struct {
	funcs []string
	value int64
}

// parseTraces reads the output of `go tool pprof -traces -unit=ns`:
// after the header, samples between rule lines, each a line with the
// sample's value and innermost frame, then one line per outer frame.
func parseTraces(out string) ([]stack, error) {
	var stacks []stack
	started := false
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(strings.TrimSuffix(line, " (inline)"))
		if strings.HasPrefix(line, "-----------+") {
			started = true
			continue
		}
		if !started || line == "" {
			continue
		}
		v, fn, _ := strings.Cut(line, " ")
		if n, err := strconv.ParseInt(strings.TrimSuffix(v, "ns"), 10, 64); err == nil && strings.HasSuffix(v, "ns") {
			stacks = append(stacks, stack{value: n, funcs: []string{strings.TrimSpace(fn)}})
		} else if len(stacks) > 0 {
			st := &stacks[len(stacks)-1]
			st.funcs = append(st.funcs, line)
		} else {
			return nil, fmt.Errorf("pprof traces: frame %q before any sample", line)
		}
	}
	if !started {
		return nil, fmt.Errorf("pprof traces: no samples section in %q", out)
	}
	return stacks, nil
}
