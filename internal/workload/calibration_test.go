package workload_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestCalibrationBands is the regression gate for the headline
// reproduction claims: the suite-average overheads and the per-benchmark
// extremes must stay within bands around the paper's numbers. A change
// to the cost model, the passes, or the generator that silently drifts
// the results out of shape fails here.
func TestCalibrationBands(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run takes ~1 minute")
	}
	type row struct {
		name         string
		cpa, pythia  float64
		cyclesBase   float64
		staticCPA    int
		staticPythia int
	}
	var rows []row
	var sumC, sumP float64
	for _, p := range workload.Profiles() {
		p := p
		base, err := workload.Run(&p, core.SchemeVanilla)
		if err != nil {
			t.Fatal(err)
		}
		cpa, err := workload.Run(&p, core.SchemeCPA)
		if err != nil {
			t.Fatal(err)
		}
		py, err := workload.Run(&p, core.SchemePythia)
		if err != nil {
			t.Fatal(err)
		}
		cpaOv, err := cpa.Overhead(base)
		if err != nil {
			t.Fatal(err)
		}
		pyOv, err := py.Overhead(base)
		if err != nil {
			t.Fatal(err)
		}
		r := row{
			name:         p.Name,
			cpa:          cpaOv,
			pythia:       pyOv,
			cyclesBase:   base.Counters.Cycles,
			staticCPA:    cpa.StaticSites,
			staticPythia: py.StaticSites,
		}
		rows = append(rows, r)
		sumC += r.cpa
		sumP += r.pythia
	}
	n := float64(len(rows))
	avgC, avgP := sumC/n, sumP/n

	// Paper: CPA 47.88 %, Pythia 13.07 %. Accept a generous band — the
	// gate catches structural drift, not decimal noise.
	if avgC < 30 || avgC > 60 {
		t.Errorf("CPA average overhead %.2f%% outside [30,60] (paper 47.88%%)", avgC)
	}
	if avgP < 7 || avgP > 20 {
		t.Errorf("Pythia average overhead %.2f%% outside [7,20] (paper 13.07%%)", avgP)
	}
	if avgP >= avgC/2 {
		t.Errorf("Pythia (%.2f%%) must undercut CPA (%.2f%%) by at least 2x", avgP, avgC)
	}
	for _, r := range rows {
		if r.pythia >= r.cpa {
			t.Errorf("%s: Pythia (%.2f%%) not cheaper than CPA (%.2f%%)", r.name, r.pythia, r.cpa)
		}
		// On the tiny benchmarks (lbm) a handful of canaries can exceed
		// the few CPA seals, so the static comparison only binds where
		// there is enough instrumentation for the ratio to be meaningful.
		if r.staticCPA >= 100 && r.staticPythia >= r.staticCPA {
			t.Errorf("%s: Pythia static PA (%d) not below CPA (%d)", r.name, r.staticPythia, r.staticCPA)
		}
	}
	// The compute-bound kernels must stay near the bottom, the
	// channel-heavy compilers near the top (the Fig. 4a gradient).
	byName := make(map[string]row, len(rows))
	for _, r := range rows {
		byName[r.name] = r
	}
	if byName["519.lbm_r"].cpa > byName["502.gcc_r"].cpa/2 {
		t.Errorf("lbm CPA (%.2f%%) should be far below gcc (%.2f%%)", byName["519.lbm_r"].cpa, byName["502.gcc_r"].cpa)
	}
	if byName["519.lbm_r"].pythia > 6 {
		t.Errorf("lbm Pythia overhead %.2f%% should be marginal", byName["519.lbm_r"].pythia)
	}
	// Suite-wide static PA reduction ~4.25x (Fig. 6b).
	var totC, totP int
	for _, r := range rows {
		totC += r.staticCPA
		totP += r.staticPythia
	}
	red := float64(totC) / float64(totP)
	if red < 3 || red > 7 {
		t.Errorf("static PA reduction %.2fx outside [3,7] (paper 4.25x)", red)
	}
}
