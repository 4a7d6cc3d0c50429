package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irpass"
	"repro/internal/minic"
	"repro/internal/slice"
)

// buildColdPrograms is the size of build-cold's draw: seven whole
// blocks of the 16 paper profiles, so every profile appears equally
// often, and at least 100 programs, so the p90 has ten samples beyond
// it. It takes about 13 s on the two-core reference machine. The
// pipeline's memo keeps every artifact of the run, so the draw also
// bounds the process's memory (about 750 MB).
const buildColdPrograms = 112

// setupReps is how many times a workload repeats its set-up; setup_s is
// the median. Set-ups under a second repeat cheapSetupReps times.
const (
	setupReps      = 3
	cheapSetupReps = 9
)

// expectedSites holds harden.static_sites.<scheme> summed over a whole
// draw, keyed by {seed, programs}, for the draws recorded when the
// benchmark was defined: seed 1 (the default) at full and self-test size.
var expectedSites = map[[2]int64][4]int{
	{1, buildColdPrograms}: {0, 49497, 11843, 26183},
	{1, tinyPrograms}:      {0, 7302, 1719, 4052},
}

// tinyPrograms is build-cold's self-test draw: one block.
const tinyPrograms = 16

// buildCold builds a seeded draw of distinct generated programs under
// all four schemes through a fresh core.Pipeline, executing nothing.
func buildCold(cfg config, rep *report) error {
	n := buildColdPrograms
	if cfg.tiny {
		n = tinyPrograms
	}
	var progs []genProgram
	var setups []float64
	for range cheapSetupReps {
		start := time.Now()
		progs = drawPrograms(cfg.seed, n)
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)

	pl := core.NewPipeline()
	lat := make([]float64, n)
	errs := make([]error, n)
	gs0, ru0, start := readGoStats(), selfUsage(), time.Now()
	parallel(n, func(i int) {
		p := progs[i]
		t0 := time.Now()
		for _, s := range core.Schemes {
			if _, err := pl.Build(p.Name, p.Source, s); err != nil {
				errs[i] = err
				break
			}
		}
		lat[i] = ms(time.Since(t0))
	})
	wall := time.Since(start)
	ru1, gs1 := selfUsage(), readGoStats()

	// Oracles, outside the timed phase: every hardened module verifies,
	// and the draw's static site counts are the recorded ones. The
	// pipeline serves these Builds from its memo.
	var sites [4]int
	ok := 0
	for i, p := range progs {
		rep.attempted++
		if errs[i] != nil {
			rep.check(false, "build %s: %v", p.Name, errs[i])
			continue
		}
		good := true
		for k, s := range core.Schemes {
			prog, err := pl.Build(p.Name, p.Source, s)
			if err == nil {
				err = ir.Verify(prog.Mod)
			}
			if err != nil {
				rep.check(false, "verify %s [%v]: %v", p.Name, s, err)
				good = false
				break
			}
			sites[k] += staticSites(prog.Mod)
		}
		if good {
			ok++
			rep.passed++
		}
	}
	if want, known := expectedSites[[2]int64{cfg.seed, int64(n)}]; known {
		rep.check(sites == want, "static sites of the draw: got %v, want %v", sites, want)
	}
	rep.aliases = append(rep.aliases, fmt.Sprintf("static sites of the draw: %v", sites))

	rep.e2e["wall_s"] = wall.Seconds()
	rep.e2e["cpu_s"] = (ru1.cpu - ru0.cpu).Seconds()
	rep.e2e["peak_rss_mb"] = float64(ru1.maxRSSK) / 1024
	rep.opLatencies(lat, "build")
	rep.e2e["goodput_per_s"] = float64(ok) / wall.Seconds()
	rep.alias("programs", float64(n), "count")
	if !cfg.trace {
		return nil
	}

	pl = nil
	runtime.GC()
	rep.layer["go.gc_cpu_share"] = (gs1.gcCPU - gs0.gcCPU) / (gs1.totalCPU - gs0.totalCPU)
	rep.layer["go.alloc_mb"] = (gs1.allocBytes - gs0.allocBytes) / mib
	for k, s := range core.Schemes {
		rep.layer["harden.static_sites."+s.String()] = float64(sites[k])
	}
	return traceBuildCold(cfg, rep, progs, mean(lat))
}

// traceBuildCold repeats the timed phase with a span around each layer
// call Pipeline.Build makes on a cold program, then runs one standalone
// vulnerability analysis per program and an allocation pass.
func traceBuildCold(cfg config, rep *report, progs []genProgram, untracedMS float64) error {
	n := len(progs)
	tr := newTracer()
	errs := make([]error, n)
	encKB := make([]float64, n)
	parallel(n, func(i int) { encKB[i], errs[i] = tracedColdBuild(tr, i, progs[i]) })
	for i, err := range errs {
		rep.attempted++
		rep.check(err == nil, "traced build %s: %v", progs[i].Name, err)
	}
	// One standalone analysis per program, in a pass of its own so the
	// build pass above stays comparable with the untraced one.
	parallel(n, func(i int) {
		mod, err := core.CompileC(progs[i].Name, progs[i].Source)
		if err == nil {
			tr.span(0, "slice.analyze", "slice", i, func() error {
				slice.AnalyzeVulnerabilities(mod)
				return nil
			})
		}
	})
	lt := tr.layers("core.build")
	rep.layer["core.build_ms"] = ms(lt.total["core.build"]) / float64(n)
	rep.layer["core.span_coverage"] = lt.coverage()
	rep.layer["trace.overhead_share"] = (rep.layer["core.build_ms"] - untracedMS) / untracedMS
	rep.layer["minic.compile_ms"] = lt.selfMS("minic.compile", n)
	rep.layer["irpass.optimize_ms"] = lt.selfMS("irpass.optimize", n)
	rep.layer["slice.analyze_ms"] = lt.selfMS("slice.analyze", n)
	for _, s := range core.Schemes {
		rep.layer[protectMetric(s)] = lt.selfMS(protectSpan(s), n)
	}
	rep.layer["ir.encode_ms"] = lt.selfMS("ir.encode", n)
	rep.layer["ir.decode_ms"] = lt.selfMS("ir.decode", n)
	rep.layer["ir.clone_ms"] = lt.selfMS("ir.clone", n)
	rep.layer["ir.encoded_kb"] = mean(encKB)
	spans, err := tr.write(filepath.Join(cfg.work, "trace", fmt.Sprintf("build-cold-seed%d.jsonl", cfg.seed)))
	rep.check(err == nil, "trace journal: %v", err)
	rep.layer["trace.spans"] = float64(spans)

	// Allocation pass: one goroutine, so the process-wide counters
	// attribute every allocation to the call being measured.
	k := min(n, 8)
	var instrs float64
	for _, p := range progs[:k] {
		var mod *ir.Module
		var err error
		b, _ := allocDelta(func() { mod, err = minic.Compile(p.Name, p.Source) })
		if err != nil {
			rep.check(false, "alloc pass %s: %v", p.Name, err)
			continue
		}
		rep.layer["minic.alloc_mb"] += float64(b) / mib / float64(k)
		irpass.Optimize(mod)
		instrs += float64(mod.NumInstrs())
		for _, s := range core.Schemes {
			c := mod.Clone()
			b, _ := allocDelta(func() { _, err = core.Protect(c, s) })
			rep.check(err == nil, "alloc pass %s [%v]: %v", p.Name, s, err)
			rep.layer["harden.protect_alloc_mb."+s.String()] += float64(b) / mib / float64(k)
		}
	}
	rep.layer["ir.instrs"] = instrs / float64(k)
	return nil
}

// tracedColdBuild makes the calls a cold Pipeline.Build of all four
// schemes makes — compile, optimize, encode and reload the vanilla
// module, then per scheme clone, protect, encode and reload — each in
// its own span under one core.build span. It returns the hardened
// encodings' size in KB.
func tracedColdBuild(tr *tracer, req int, p genProgram) (float64, error) {
	op := tr.begin(0, "core.build", "core", req)
	defer tr.end(op)
	var mod, vanilla *ir.Module
	var enc []byte
	err := tr.span(op, "minic.compile", "minic", req, func() (err error) {
		mod, err = minic.Compile(p.Name, p.Source)
		return err
	})
	if err != nil {
		return 0, err
	}
	tr.span(op, "irpass.optimize", "irpass", req, func() error { irpass.Optimize(mod); return nil })
	if err := tr.span(op, "ir.encode", "ir", req, func() (err error) { enc, err = ir.EncodeModule(mod); return err }); err != nil {
		return 0, err
	}
	if err := tr.span(op, "ir.decode", "ir", req, func() (err error) { vanilla, err = ir.DecodeModule(enc); return err }); err != nil {
		return 0, err
	}
	kb := 0.0
	for _, s := range core.Schemes {
		var c *ir.Module
		tr.span(op, "ir.clone", "ir", req, func() error { c = vanilla.Clone(); return nil })
		err := tr.span(op, protectSpan(s), "harden", req, func() error { _, err := core.Protect(c, s); return err })
		if err != nil {
			return 0, err
		}
		if err := tr.span(op, "ir.encode", "ir", req, func() (err error) { enc, err = ir.EncodeModule(c); return err }); err != nil {
			return 0, err
		}
		kb += float64(len(enc)) / 1024
		if err := tr.span(op, "ir.decode", "ir", req, func() error { _, err := ir.DecodeModule(enc); return err }); err != nil {
			return 0, err
		}
	}
	return kb, nil
}

func protectSpan(s core.Scheme) string {
	if s == core.SchemeDFI {
		return "dfi.protect"
	}
	return "harden.protect." + s.String()
}

func protectMetric(s core.Scheme) string {
	if s == core.SchemeDFI {
		return "dfi.protect_ms"
	}
	return "harden.protect_ms." + s.String()
}

// staticSites counts the hardening instructions in mod.
func staticSites(mod *ir.Module) int {
	n := 0
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op.IsHardening() {
					n++
				}
			}
		}
	}
	return n
}
