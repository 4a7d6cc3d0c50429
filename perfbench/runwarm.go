package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workload"
)

// runWarmPerSecond sizes run-warm: warm executions per second of
// --seconds on the two-core reference machine at the commit that
// defined the benchmark. Executions come in whole rounds of every
// (profile, scheme) pair, at least two, so every pair repeats.
const runWarmPerSecond = 27

// warmCell is one (paper profile, scheme) pair built in setup.
type warmCell struct {
	p      workload.Profile
	src    string
	stdin  string
	scheme core.Scheme
}

// warmOutcome is what one execution produced; repeats must match.
type warmOutcome struct {
	ret            uint64
	stdout         []byte
	instrs, paInst int64
	cycles         float64
	fault          string
}

// runWarm builds the 16 paper profiles under the four schemes in setup,
// then executes them repeatedly, in seeded order, on the warm path:
// Pipeline.Build (a memo hit), vm.New, Machine.Run.
func runWarm(cfg config, rep *report) error {
	var cells []warmCell
	for _, p := range workload.Profiles() {
		src := workload.Generate(&p)
		for _, s := range core.Schemes {
			cells = append(cells, warmCell{p: p, src: src, stdin: workload.Stdin(&p), scheme: s})
		}
	}
	if cfg.tiny {
		cells = cells[:8] // two profiles
	}
	var pl *core.Pipeline
	var setups []float64
	for range setupReps {
		start := time.Now()
		pl = core.NewPipeline()
		errs := make([]error, len(cells))
		parallel(len(cells), func(i int) {
			_, errs[i] = pl.Build(cells[i].p.Name, cells[i].src, cells[i].scheme)
		})
		setups = append(setups, time.Since(start).Seconds())
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("setup build %s [%v]: %w", cells[i].p.Name, cells[i].scheme, err)
			}
		}
	}
	rep.e2e["setup_s"] = median(setups)

	rounds := max(2, (cfg.seconds*runWarmPerSecond+len(cells)/2)/len(cells))
	order := make([]int, 0, rounds*len(cells))
	for r := 0; r < rounds; r++ {
		for i := range cells {
			order = append(order, i)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })

	all, lat, wall, cpu, gsd := warmPass(pl, cells, order, nil)
	ru := selfUsage()
	outs := firstOutcomes(all, order, len(cells))
	checkWarm(cfg, rep, cells, order, all, outs)

	var simInstrs float64
	for _, o := range all {
		simInstrs += float64(o.instrs)
	}
	rep.e2e["wall_s"] = wall.Seconds()
	rep.e2e["cpu_s"] = cpu.Seconds()
	rep.e2e["peak_rss_mb"] = float64(ru.maxRSSK) / 1024
	rep.opLatencies(lat, "run")
	rep.e2e["goodput_per_s"] = float64(rep.attempted-rep.failed) / wall.Seconds()
	rep.alias("sim_minstr_per_s", simInstrs/1e6/wall.Seconds(), "Minstr/s")
	rep.alias("executions", float64(len(order)), "count")
	if !cfg.trace {
		return nil
	}

	rep.layer["go.gc_cpu_share"] = gsd.gcCPU / gsd.totalCPU
	rep.layer["go.alloc_mb"] = gsd.allocBytes / mib
	tr := newTracer()
	tall, tlat, _, _, _ := warmPass(pl, cells, order, tr)
	for k, i := range order {
		rep.attempted++
		rep.check(tall[k].fault == "" && sameOutcome(tall[k], outs[i]), "traced %s [%v] execution %d differs from the first", cells[i].p.Name, cells[i].scheme, k)
	}
	lt := tr.layers("run")
	n := len(order)
	rep.layer["core.build_ms"] = ms(lt.total["core.build"]) / float64(n)
	// On the warm path Build is a memo hit, so its time is the IR decode
	// (plus the memo's key hashing).
	rep.layer["ir.decode_ms"] = lt.selfMS("core.build", n)
	rep.layer["core.span_coverage"] = lt.coverage()
	rep.layer["trace.overhead_share"] = (mean(tlat) - mean(lat)) / mean(lat)
	perScheme := make(map[string]int)
	instrs := make(map[string]float64)
	for _, i := range order {
		s := cells[i].scheme.String()
		perScheme[s]++
		instrs[s] += float64(outs[i].instrs)
	}
	for s, k := range perScheme {
		rep.layer["vm.new_ms."+s] = lt.selfMS("vm.new."+s, k)
		rep.layer["vm.run_ms."+s] = lt.selfMS("vm.run."+s, k)
		rep.layer["vm.ns_per_sim_instr."+s] = float64(lt.self["vm.run."+s].Nanoseconds()) / instrs[s]
	}
	spans, err := tr.write(filepath.Join(cfg.work, "trace", fmt.Sprintf("run-warm-seed%d.jsonl", cfg.seed)))
	rep.check(err == nil, "trace journal: %v", err)
	rep.layer["trace.spans"] = float64(spans)

	// Allocation pass and modeled counters: each cell once, on one
	// goroutine.
	for i, c := range cells {
		s := c.scheme.String()
		prog, err := pl.Build(c.p.Name, c.src, c.scheme)
		if err != nil {
			return err
		}
		var res *vm.Result
		b, mallocs := allocDelta(func() {
			m := prog.NewMachine()
			m.Stdin.SetInput([]byte(c.stdin))
			res, err = m.Run("main")
		})
		if err != nil {
			return err
		}
		k := float64(len(cells) / len(core.Schemes))
		rep.layer["vm.alloc_kb_per_run."+s] += float64(b) / 1024 / k
		rep.layer["vm.mallocs_per_run."+s] += float64(mallocs) / k
		rep.layer["vm.sim_instrs."+s] += float64(res.Counters.Instrs)
		rep.layer["vm.sim_pa_instrs."+s] += float64(res.Counters.PAInstrs)
		rep.layer["vm.sim_cycles."+s] += res.Counters.Cycles
		rep.check(sameOutcome(outcomeOf(res), outs[i]), "alloc-pass rerun of %s [%s] differs", c.p.Name, s)
	}
	return nil
}

// warmPass executes order on the benchmark's workers and returns each
// execution's outcome and latency, the pass's wall and CPU time, and
// the Go runtime's GC and allocation deltas.
func warmPass(pl *core.Pipeline, cells []warmCell, order []int, tr *tracer) (all []warmOutcome, lat []float64, wall, cpu time.Duration, gsd goStats) {
	all = make([]warmOutcome, len(order))
	errs := make([]error, len(order))
	lat = make([]float64, len(order))
	gs0, ru0, start := readGoStats(), selfUsage(), time.Now()
	parallel(len(order), func(k int) {
		c := cells[order[k]]
		s := c.scheme.String()
		t0 := time.Now()
		op := tr.begin(0, "run", "bench", k)
		var prog *core.Program
		var res *vm.Result
		err := tr.span(op, "core.build", "core", k, func() (err error) {
			prog, err = pl.Build(c.p.Name, c.src, c.scheme)
			return err
		})
		if err == nil {
			var m *vm.Machine
			tr.span(op, "vm.new."+s, "vm", k, func() error {
				m = prog.NewMachine()
				m.Stdin.SetInput([]byte(c.stdin))
				return nil
			})
			err = tr.span(op, "vm.run."+s, "vm", k, func() (err error) {
				res, err = m.Run("main")
				return err
			})
		}
		tr.end(op)
		lat[k] = ms(time.Since(t0))
		if err != nil {
			errs[k] = err
			return
		}
		all[k] = outcomeOf(res)
	})
	wall = time.Since(start)
	ru1, gs1 := selfUsage(), readGoStats()
	cpu = ru1.cpu - ru0.cpu
	gsd = goStats{gcCPU: gs1.gcCPU - gs0.gcCPU, totalCPU: gs1.totalCPU - gs0.totalCPU, allocBytes: gs1.allocBytes - gs0.allocBytes}
	for k, err := range errs {
		if err != nil {
			all[k].fault = "error: " + err.Error()
		}
	}
	return all, lat, wall, cpu, gsd
}

// firstOutcomes returns, per cell, the outcome of its first execution
// in order.
func firstOutcomes(all []warmOutcome, order []int, ncells int) []warmOutcome {
	first := make([]warmOutcome, ncells)
	seen := make([]bool, ncells)
	for k, i := range order {
		if !seen[i] {
			first[i], seen[i] = all[k], true
		}
	}
	return first
}

func outcomeOf(res *vm.Result) warmOutcome {
	o := warmOutcome{ret: res.Ret, stdout: res.Stdout, instrs: res.Counters.Instrs, paInst: res.Counters.PAInstrs, cycles: res.Counters.Cycles}
	if res.Fault != nil {
		o.fault = res.Fault.Kind.String()
	}
	return o
}

func sameOutcome(a, b warmOutcome) bool {
	return a.ret == b.ret && bytes.Equal(a.stdout, b.stdout) && a.instrs == b.instrs &&
		a.paInst == b.paInst && a.cycles == b.cycles && a.fault == b.fault
}

// checkWarm applies run-warm's oracles: every execution is clean and
// repeats its cell's first execution exactly (modeled counters too);
// benign stdout and return value agree across the four schemes; and
// vanilla cycles match fig4a's base-Mcycles column.
func checkWarm(cfg config, rep *report, cells []warmCell, order []int, all, first []warmOutcome) {
	fig4a, err := readTable(cfg.root, "results_full.txt", "fig4a")
	rep.check(err == nil, "read fig4a: %v", err)
	for k, i := range order {
		rep.attempted++
		o := all[k]
		c := cells[i]
		switch {
		case o.fault != "":
			rep.check(false, "%s [%v] faulted: %s", c.p.Name, c.scheme, o.fault)
		case !sameOutcome(o, first[i]):
			rep.check(false, "%s [%v] execution %d differs from the first", c.p.Name, c.scheme, k)
		default:
			rep.passed++
		}
	}
	for i, c := range cells {
		van := first[i-i%len(core.Schemes)] // cells run scheme-fastest
		o := first[i]
		rep.check(o.ret == van.ret && bytes.Equal(o.stdout, van.stdout),
			"%s [%v]: stdout/ret differ from vanilla", c.p.Name, c.scheme)
		if c.scheme == core.SchemeVanilla && fig4a != nil {
			want := fig4a[c.p.Name]["base-Mcycles"]
			got := strconv.FormatFloat(o.cycles/1e6, 'f', 3, 64)
			rep.check(got == want, "%s vanilla Mcycles %s, fig4a says %q", c.p.Name, got, want)
		}
	}
}
