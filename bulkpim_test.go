package bulkpim

import (
	"strings"
	"testing"
)

func TestFacadeModels(t *testing.T) {
	if len(ProposedModels()) != 4 || len(AllVariants()) != 7 {
		t.Fatal("model inventories wrong")
	}
	m, err := ParseModel("scope-relaxed")
	if err != nil || m != ScopeRelaxed {
		t.Fatal("ParseModel broken through facade")
	}
}

func TestTablesRender(t *testing.T) {
	cases := map[string][]string{
		"table1": {"atomic", "store", "scope", "All caches"},
		"table2": {"2MB", "MESI", "huge page"},
		"table3": {"95%", "zipfian", "uniform [1,100]"},
		"table4": {"q1", "q22", "Full-query", "1832"},
		"area":   {"0.092", "LLC only", "all caches"},
	}
	for name, wants := range cases {
		out, err := RunExperiment(name, Options{Scale: ScaleBench})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q:\n%s", name, w, out)
			}
		}
	}
}

func TestAreaReportMatchesPaper(t *testing.T) {
	rep := EstimateArea()
	if rep.LLCOnlyCalibratedPct < 0.08 || rep.LLCOnlyCalibratedPct > 0.11 {
		t.Errorf("LLC overhead %.4f%%, paper says 0.092%%", rep.LLCOnlyCalibratedPct)
	}
	if rep.AllCachesCalibratedPct < 0.2 || rep.AllCachesCalibratedPct > 0.25 {
		t.Errorf("all-caches overhead %.4f%%, paper says 0.22%%", rep.AllCachesCalibratedPct)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", Options{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestExperimentsList(t *testing.T) {
	found := map[string]bool{}
	for _, e := range Experiments() {
		found[e] = true
	}
	for _, want := range []string{"fig1", "fig3", "fig7", "fig8", "fig11a", "fig12", "fig13", "table1", "area", "all"} {
		if !found[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
}

// TestFig3BenchScale checks the Fig. 3 ordering at the smallest scale:
// uncacheable must be the slowest coherence approach, swflush in between.
func TestFig3BenchScale(t *testing.T) {
	s := experimentFigures(t, "fig3", Options{Scale: ScaleBench})["fig3"][0].(*Series)
	last := len(s.X) - 1
	naive := s.Y["naive"][last]
	sw := s.Y["swflush"][last]
	unc := s.Y["uncacheable"][last]
	if naive != 1 {
		t.Fatalf("naive norm = %v", naive)
	}
	if !(unc > sw && sw > 1) {
		t.Errorf("expected uncacheable > swflush > naive, got unc=%v sw=%v", unc, sw)
	}
}

// TestFig7BenchScale checks the headline claim at the smallest scale: the
// four models' overhead over naive stays small (paper: at most ~6%; the
// reduced scale allows a wider margin) and all runs complete.
func TestFig7BenchScale(t *testing.T) {
	figs := experimentFigures(t, "fig7", Options{Scale: ScaleBench})
	norm := figs["fig7"][1].(*Series)
	for _, m := range []string{"atomic", "store", "scope", "scope-relaxed"} {
		for i := range norm.X {
			v := norm.Y[m][i]
			if v <= 0 || v > 1.5 {
				t.Errorf("%s at %v scopes: norm %v out of plausible range", m, norm.X[i], v)
			}
		}
	}
	// Scan machinery engaged: scan latency sampled, skip ratio high.
	skip := figs["fig10"][3].(*Series)
	last := len(skip.X) - 1
	if skip.Y["atomic"][last] < 0.5 {
		t.Errorf("SBV skip ratio %v implausibly low", skip.Y["atomic"][last])
	}
}
