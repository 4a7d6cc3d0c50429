package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig runs a workload at self-test size against this checkout.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{root: root, work: t.TempDir(), workload: workload, seed: 1, seconds: 1, trace: trace, tiny: true}
}

// TestBenchmarkJSON checks BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to perfbench", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, perfbench %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eMetrics)
	same("per_layer", doc.PerLayer, layerMetrics)
}

// TestTinyWorkloads runs every workload untraced and traced at tiny
// sizes: all checks pass, and every declared metric is printed with
// its unit, both in the result and in the human-readable lines.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	for name, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, trace)
			res, lines, err := run(cfg, wl)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d failed:\n%s", name, trace, res.Failed, res.Attempted, strings.Join(lines, "\n"))
			}
			defs := e2eMetrics
			if trace {
				defs = layerMetrics
			}
			text := strings.Join(lines, "\n")
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
				if !strings.Contains(text, d.name+" ") || !strings.Contains(text, " "+d.unit) {
					t.Errorf("%s trace=%v: %s not printed with its unit", name, trace, d.name)
				}
			}
			if !strings.Contains(text, "error_share") {
				t.Errorf("%s: error_share not printed", name)
			}
			if trace && (name == "build-cold" || name == "run-warm") && res.Metrics["core.span_coverage"].Value < 0.9 {
				t.Errorf("%s: spans cover %.3f of op time, want >= 0.9", name, res.Metrics["core.span_coverage"].Value)
			}
		}
	}
}

// TestWrongExpectationFails checks a deliberately wrong expected output
// is reported as a failure, end to end and at the oracle.
func TestWrongExpectationFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds programs")
	}
	key := [2]int64{1, tinyPrograms}
	saved := expectedSites[key]
	t.Cleanup(func() { expectedSites[key] = saved })
	expectedSites[key] = [4]int{saved[0] + 1, saved[1], saved[2], saved[3]}
	res, _, err := run(tinyConfig(t, "build-cold", false), buildCold)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("wrong expected static sites: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}

	rep := newReport()
	reqs := []mixReq{{kind: "hit", want: "detected(pac)"}, {kind: "malformed", want: "400"}}
	resps := []mixResp{{status: http.StatusOK, verdict: "bent"}, {status: http.StatusOK, verdict: "clean"}}
	if good := checkMix(rep, reqs, resps); good != 0 || rep.failed != 2 {
		t.Errorf("wrong verdicts: good=%d failed=%d, want 0 and 2", good, rep.failed)
	}
}
