// Command perfbench is the repository's benchmark. It drives the real
// entry points — the built pythia-bench and pythiad binaries, and
// in-process core.Pipeline / vm.Machine calls — over four seeded
// workloads, checks every output against an oracle, and prints one
// JSON result line last:
//
//	perfbench --workload build-cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is a separate traced run that reports per-layer metrics (see
// README.md for the metric list and how the layers interact). Run it
// from the repository root through run.sh, which builds it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// config is one invocation.
type config struct {
	root     string // repository checkout the benchmark builds and reads
	work     string // work directory inside the checkout (.bench_build)
	workload string
	seed     int64
	seconds  int
	trace    bool
	// tiny shrinks every workload to self-test sizes.
	tiny bool
}

// A workload runs setup and the timed phase and fills the report.
type workloadFunc func(cfg config, rep *report) error

var workloads = map[string]workloadFunc{
	"paper-sweep": paperSweep,
	"build-cold":  buildCold,
	"run-warm":    runWarm,
	"pythiad-mix": pythiadMix,
}

// e2eMetrics are measured with tracing off, on every workload. The op
// of op_ms_p50 is the workload's unit of work: one sweep (paper-sweep),
// one program built under all four schemes (build-cold), one warm
// execution (run-warm), one submission timed from its due time
// (pythiad-mix).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_ms_p50", "ms"},
	{"goodput_per_s", "1/s"},
}

type metricDef struct{ name, unit string }

// layerMetrics are reported by the traced run. A layer a workload does
// not exercise reads 0 there.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"minic.compile_ms", "ms"}, {"minic.alloc_mb", "MB"},
		{"irpass.optimize_ms", "ms"}, {"ir.instrs", "count"},
		{"slice.analyze_ms", "ms"},
		{"harden.protect_ms.vanilla", "ms"}, {"harden.protect_ms.cpa", "ms"},
		{"harden.protect_ms.pythia", "ms"}, {"dfi.protect_ms", "ms"},
		{"ir.encode_ms", "ms"}, {"ir.decode_ms", "ms"}, {"ir.clone_ms", "ms"}, {"ir.encoded_kb", "KB"},
	}
	for _, s := range schemeNames {
		defs = append(defs,
			metricDef{"harden.protect_alloc_mb." + s, "MB"},
			metricDef{"harden.static_sites." + s, "count"})
	}
	for _, s := range schemeNames {
		defs = append(defs,
			metricDef{"vm.new_ms." + s, "ms"},
			metricDef{"vm.run_ms." + s, "ms"},
			metricDef{"vm.ns_per_sim_instr." + s, "ns"},
			metricDef{"vm.alloc_kb_per_run." + s, "KB"},
			metricDef{"vm.mallocs_per_run." + s, "count"},
			metricDef{"vm.sim_instrs." + s, "count"},
			metricDef{"vm.sim_pa_instrs." + s, "count"},
			metricDef{"vm.sim_cycles." + s, "count"})
	}
	return append(defs,
		metricDef{"pa.sign_ns", "ns"}, metricDef{"pa.auth_ns", "ns"}, metricDef{"pa.generic_mac_ns", "ns"},
		metricDef{"core.build_ms", "ms"}, metricDef{"core.span_coverage", "share"},
		metricDef{"pipeline.compile_ms_sum", "ms"}, metricDef{"pipeline.harden_ms_sum", "ms"},
		metricDef{"pipeline.compile.hits", "count"}, metricDef{"pipeline.compile.misses", "count"},
		metricDef{"pipeline.harden.hits", "count"}, metricDef{"pipeline.harden.misses", "count"},
		metricDef{"service.queue_wait_ms_p50", "ms"}, metricDef{"service.queue_wait_ms_p99", "ms"},
		metricDef{"service.run_ms_p50", "ms"}, metricDef{"service.run_ms_p99", "ms"},
		metricDef{"service.cache_hit_share", "share"}, metricDef{"service.rejected_share", "share"},
		metricDef{"client.sched_late_ms_p99", "ms"}, metricDef{"daemon.heap_inuse_mb", "MB"},
		metricDef{"artifact.entries", "count"}, metricDef{"artifact.mb", "MB"},
		metricDef{"bench.prewarm_s", "s"},
		metricDef{"bench.runs_executed", "count"}, metricDef{"bench.runs_cached", "count"},
		metricDef{"bench.analyses_executed", "count"}, metricDef{"bench.analyses_cached", "count"},
		metricDef{"bench.pool.queue_wait_ms_p99", "ms"},
		metricDef{"go.gc_cpu_share", "share"}, metricDef{"go.alloc_mb", "MB"},
		metricDef{"trace.overhead_share", "share"}, metricDef{"trace.spans", "count"},
	)
}()

// schemeNames are the four headline schemes in evaluation order, as
// the CLIs and pythiad spell them.
var schemeNames = []string{"vanilla", "cpa", "pythia", "dfi"}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-sweep, build-cold, run-warm or pythiad-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 15, "intended length of the timed phase")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	wl, ok := workloads[cfg.workload]
	if !ok || flag.NArg() != 0 || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", cfg.workload)
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg.root, cfg.work = root, filepath.Join(root, ".bench_build")
	res, lines, err := run(cfg, wl)
	if err != nil {
		fatal(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload and renders its report: human-readable
// lines (checks, per-workload metric names, every metric with its unit)
// and the result object.
func run(cfg config, wl workloadFunc) (*result, []string, error) {
	if _, err := os.Stat(filepath.Join(cfg.root, "results_full.txt")); err != nil {
		return nil, nil, fmt.Errorf("not a repository checkout: %w", err)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, nil, err
	}
	rep := newReport()
	if err := wl(cfg, rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		paProbe(rep)
	}
	if rep.attempted < 1 {
		return nil, nil, errors.New(cfg.workload + ": no operation attempted")
	}
	defs, vals := e2eMetrics, rep.e2e
	if cfg.trace {
		defs, vals = layerMetrics, rep.layer
	}
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	lines := []string{fmt.Sprintf("# perfbench %s seed=%d seconds=%d trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)}
	lines = append(lines, fmt.Sprintf("checks: %d passed, %d failed", rep.passed, len(rep.checks)))
	for _, c := range rep.checks {
		lines = append(lines, "FAIL "+c)
	}
	lines = append(lines, fmt.Sprintf("%-22s %.6g share (%d failed / %d attempted)", "error_share",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted))
	lines = append(lines, rep.aliases...)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			return nil, nil, fmt.Errorf("%s: end-to-end metric %s not measured", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		lines = append(lines, fmt.Sprintf("%-32s %.6g %s", d.name, v, d.unit))
	}
	var extra []string
	for name := range vals {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, nil, fmt.Errorf("%s: metrics %v are not declared", cfg.workload, extra)
	}
	return res, lines, nil
}
