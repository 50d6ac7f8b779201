package bulkpim

// The experiment registry is the declarative backbone of the harness:
// every experiment is an ExperimentSpec with two separable phases — a
// Plan that enumerates its simulation jobs without executing anything,
// and a set of Artifacts (figures/tables), each declaring the exact
// job-key set it needs and rendered individually by Render purely from
// job results looked up by key. Everything else is built on that
// split: a local run plans and executes in one process; a distributed
// run plans everywhere, executes a shard-filtered subset per machine
// into a local result cache, merges the caches, and runs the report
// pass entirely from cache hits; a streaming run (stream.go) counts
// down each artifact's key set as results settle and renders it the
// moment its last job lands. Render returns an artifact's figures, so
// the text report (reportText) and the CSV files are two formats of
// one render. RunExperiment, StreamReport, the pimbench plan/merge
// subcommands and the -shard filter all resolve experiments through
// this one table, so the advertised experiment list can never drift
// from what actually runs.

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Artifact is one renderable output of an ExperimentSpec — a figure or
// table name (fig7, fig10, table2, …) plus the exact job-key set whose
// results its render folds. Keys is empty for static tables, which are
// renderable before any job runs. The per-artifact key sets are what
// make streaming cheap: "the last job for figure X settled" is a
// remaining-key countdown over Keys, no simulation knowledge needed.
type Artifact struct {
	Name string
	Keys []string
}

// Figure is one rendered figure or table of an artifact, in its two
// output formats: report text and CSV. *Series and *Table satisfy it.
type Figure interface {
	String() string
	CSV() string
}

// ExperimentSpec declares one experiment of the paper's evaluation.
type ExperimentSpec struct {
	// Name is the canonical experiment name ("fig7", "table2", ...).
	Name string
	// Bundles lists additional artifact names this spec renders from
	// the same sweep (fig10 rides on fig7's jobs, fig9 on fig8's);
	// requesting a bundled name resolves to this spec.
	Bundles []string
	// Plan enumerates the experiment's simulation jobs — keys,
	// fingerprints, workload identity — without executing any
	// simulation work. Workload generation is deferred into the job
	// closures, so planning a full-scale suite is instant. nil for
	// static table experiments with no jobs.
	Plan func(opts Options) ([]SimJob, error)
	// Artifacts declares the spec's renderable outputs in report
	// order: the artifact named after the spec first, bundled names
	// after. Like Plan it executes nothing; key sets may vary with
	// opts (scale changes the grid) but names never do.
	Artifacts func(opts Options) []Artifact
	// Render produces one declared artifact's figures, in report
	// order, from planned-job results looked up by job key. It performs
	// no simulation work, so a coordinator whose cache holds an
	// artifact's key set renders it without computing anything — and a
	// stream renders it the moment the last of those keys settles.
	Render func(opts Options, artifact string, rs *ResultSet) ([]Figure, error)
}

// reportText renders figures as report text, one per line — the one
// text form behind streamed reports and the daemon's
// artifact endpoint.
func reportText(figs []Figure) string {
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// figures wraps a builder's single figure (or its error) as a render.
func figures[F Figure](f F, err error) ([]Figure, error) {
	if err != nil {
		return nil, err
	}
	return []Figure{f}, nil
}

// ArtifactNames lists the spec's artifact names in declaration order.
// Names are scale-independent — only key sets vary with options — so a
// fixed smoke-scale enumeration serves catalogs and lookups.
func (s ExperimentSpec) ArtifactNames() []string {
	arts := s.Artifacts(Options{Scale: ScaleSmoke})
	out := make([]string, len(arts))
	for i, a := range arts {
		out[i] = a.Name
	}
	return out
}

// LookupArtifact resolves an artifact name (fig10, table2, …) to the
// spec that renders it. Artifact names are the union of spec names and
// bundled names, so this is LookupExperiment at artifact granularity.
func LookupArtifact(name string) (ExperimentSpec, bool) {
	n := strings.ToLower(name)
	for _, s := range registry {
		for _, a := range s.ArtifactNames() {
			if a == n {
				return s, true
			}
		}
	}
	return ExperimentSpec{}, false
}

// singleArtifact wires the Artifacts/Render pair for the common
// one-artifact spec: the artifact carries the spec's name, keys
// enumerates its job keys at the given options (nil for static
// tables), renderOne produces its figures.
func singleArtifact(name string, keys func(opts Options) []string,
	renderOne func(opts Options, rs *ResultSet) ([]Figure, error)) (
	func(Options) []Artifact, func(Options, string, *ResultSet) ([]Figure, error)) {
	artifacts := func(opts Options) []Artifact {
		var ks []string
		if keys != nil {
			ks = keys(opts)
		}
		return []Artifact{{Name: name, Keys: ks}}
	}
	renderFn := func(opts Options, artifact string, rs *ResultSet) ([]Figure, error) {
		if artifact != name {
			return nil, fmt.Errorf("%s: unknown artifact %q", name, artifact)
		}
		return renderOne(opts, rs)
	}
	return artifacts, renderFn
}

// ResultSet indexes executed grid-point results by job key: the
// interface between an experiment's execute and report phases. Failed
// points are absent, mirroring the skip-failed-points behaviour of the
// pre-registry sweeps (the execute phase separately folds failures
// into an error).
type ResultSet struct {
	byKey map[string]Result
}

// Lookup returns the result of the job planned under key.
func (s *ResultSet) Lookup(key string) (Result, bool) {
	r, ok := s.byKey[key]
	return r, ok
}

// Len returns the number of indexed results.
func (s *ResultSet) Len() int { return len(s.byKey) }

// execCount counts Execute invocations of planned jobs, across every
// experiment. Tests use it to enforce the plan/execute separation
// contract: planning (and fingerprinting) a suite must execute zero
// simulation work.
var execCount atomic.Int64

// countExec wraps a planned job's Execute with the invocation counter.
// Every spec's Plan routes its Execute closures through this.
func countExec(f func(Config) (Result, error)) func(Config) (Result, error) {
	return func(cfg Config) (Result, error) {
		execCount.Add(1)
		return f(cfg)
	}
}

// registry lists every experiment in canonical suite order. Specs are
// appended here and nowhere else; Experiments, StandaloneExperiments,
// RunExperiment, StreamReport and the plan/shard pipeline all derive
// from this table.
var registry = []ExperimentSpec{
	fig1Spec(),
	fig3Spec(),
	fig7Spec(),
	fig8Spec(),
	fig11aSpec(),
	fig11bSpec(),
	fig12Spec(),
	fig13Spec(),
	tableSpec("table1", TableITable),
	tableSpec("table2", TableIITable),
	tableSpec("table3", TableIIITable),
	tableSpec("table4", TableIVTable),
	tableSpec("area", AreaTable),
	ablationSpec(),
	sbsizeSpec(),
	multimodSpec(),
}

// LookupExperiment resolves an experiment name — canonical or bundled
// (fig10 -> fig7, fig9 -> fig8) — to its spec.
func LookupExperiment(name string) (ExperimentSpec, bool) {
	n := strings.ToLower(name)
	for _, s := range registry {
		if s.Name == n {
			return s, true
		}
		for _, b := range s.Bundles {
			if b == n {
				return s, true
			}
		}
	}
	return ExperimentSpec{}, false
}

// Experiments lists the regenerable artifacts: every registered spec,
// its bundled artifact names, and "all".
func Experiments() []string {
	var out []string
	for _, s := range registry {
		out = append(out, s.Name)
		out = append(out, s.Bundles...)
	}
	return append(out, "all")
}

// StandaloneExperiments returns the canonical iteration list for an
// "all" run: each registered spec exactly once, in suite order —
// bundled names (fig10 with fig7, fig9 with fig8) are rendered by
// their owning spec and therefore excluded.
func StandaloneExperiments() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// RunExperiment runs the named experiment ("all" for the suite) and
// returns its printable report: StreamReport into a buffer. The "all"
// report carries a "==== name ====" header per experiment; the timing
// footer is not embedded — wall times vary run to run, and the report
// must stay byte-identical across cold, warm, parallel and sharded
// runs. On a job failure the report holds every artifact that did not
// need the failed job, and the error names the job.
func RunExperiment(name string, opts Options) (string, error) {
	var b strings.Builder
	_, err := StreamReport(name, opts, nil, &b)
	return b.String(), err
}
