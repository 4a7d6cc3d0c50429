package slice_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/slice"
	"repro/internal/workload"
)

// benchSink keeps the benchmarked result live.
var benchSink *slice.VulnReport

// BenchmarkAnalyzeVulnerabilities runs the whole module analysis (alias
// analysis, input-channel construction and one ground-truth branch
// decomposition per conditional branch) over the quick bench's three
// paper profiles, compiled once outside the timer.
func BenchmarkAnalyzeVulnerabilities(b *testing.B) {
	var mods []*ir.Module
	for _, name := range []string{"519.lbm_r", "502.gcc_r", "nginx"} {
		p := workload.ProfileByName(name)
		mod, err := core.CompileC(p.Name, workload.Generate(p))
		if err != nil {
			b.Fatal(err)
		}
		mods = append(mods, mod)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mod := range mods {
			benchSink = slice.AnalyzeVulnerabilities(mod)
		}
	}
}
