package vm_test

// Tests for the machine's single per-site record: the per-dfunc
// counter cells that SitesExecuted, Result.Coverage, Result.SiteCosts
// and the session site profile are all derived from.

import (
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/vm"
)

func pythiaCase(t *testing.T, name string) (*core.Program, *attack.Case) {
	t.Helper()
	c := attack.CaseByName(name)
	if c == nil {
		t.Fatalf("no corpus case %q", name)
	}
	prog, err := core.Build(c.Name, c.Source, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	return prog, c
}

// TestBudgetStopIsNotASiteFault: an out-of-fuel stop that lands on a
// hardening instruction ends the run there, but it is not an outcome
// of that check, so the site's fault count must stay zero.
func TestBudgetStopIsNotASiteFault(t *testing.T) {
	prog, c := pythiaCase(t, "privesc-string-overflow")
	obs.Start(&obs.Session{Coverage: obs.NewCoverageAgg()})
	defer obs.Stop()

	onSite := 0
	for fuel := int64(1); fuel <= 400; fuel++ {
		m := vm.New(prog.Mod, vm.Config{Seed: prog.Seed, Fuel: fuel, Flight: 1})
		m.Stdin.SetInput([]byte(c.Benign))
		res := mustRun(t, m, "main")
		if res.Fault == nil {
			break
		}
		if res.Fault.Kind != vm.FaultOOF {
			t.Fatalf("fuel %d: fault %v, want out-of-fuel", fuel, res.Fault)
		}
		if site := res.Fault.Forensics.Site; site != "" {
			onSite++
			if res.Coverage[site].Execs == 0 {
				t.Errorf("fuel %d: stop at %s not counted as an execution", fuel, site)
			}
		}
		for id, sc := range res.Coverage {
			if sc.Faults != 0 {
				t.Errorf("fuel %d: out-of-fuel stop counted as a fault at %s: %+v", fuel, id, sc)
			}
		}
	}
	if onSite == 0 {
		t.Fatal("no out-of-fuel stop landed on a check site; the sweep tests nothing")
	}
}

// siteKeys maps each stable site id in mod to its site-profiler key.
func siteKeys(mod *ir.Module) map[string]perf.SiteKey {
	keys := make(map[string]perf.SiteKey)
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if id := in.GetMeta("site"); id != "" {
					keys[id] = perf.SiteKey{Func: f.FName, Instr: in.String()}
				}
			}
		}
	}
	return keys
}

// TestSiteCountsAgree: with coverage, attribution and the site profiler
// all armed, the three views of the per-site record agree, and a second
// Run on the same machine keeps them cumulative while the profiler
// receives only the delta.
func TestSiteCountsAgree(t *testing.T) {
	prog, c := pythiaCase(t, "privesc-string-overflow")
	sess := obs.Start(&obs.Session{
		Coverage: obs.NewCoverageAgg(),
		Attrib:   obs.NewAttribAgg(),
		Sites:    perf.NewSiteProf(),
	})
	defer obs.Stop()

	m := vm.New(prog.Mod, vm.Config{Seed: prog.Seed})
	check := func(res *vm.Result) {
		t.Helper()
		if res.Fault != nil {
			t.Fatalf("benign run faulted: %v", res.Fault)
		}
		executed := 0
		for id, sc := range res.Coverage {
			if sc.Execs != res.SiteCosts[id].Count {
				t.Errorf("%s: coverage execs %d, site costs count %d", id, sc.Execs, res.SiteCosts[id].Count)
			}
			if sc.Execs > 0 {
				executed++
			}
		}
		if len(res.SiteCosts) != len(res.Coverage) {
			t.Errorf("site costs hold %d sites, coverage %d", len(res.SiteCosts), len(res.Coverage))
		}
		if executed == 0 || res.SitesExecuted != executed {
			t.Errorf("SitesExecuted %d, coverage has %d executed sites", res.SitesExecuted, executed)
		}
	}

	m.Stdin.SetInput([]byte(c.Benign))
	first := mustRun(t, m, "main")
	check(first)
	once := make(map[string]int64, len(first.Coverage))
	for id, sc := range first.Coverage {
		once[id] = sc.Execs
	}

	m.Stdin.SetInput([]byte(c.Benign))
	second := mustRun(t, m, "main")
	check(second)
	if second.SitesExecuted != first.SitesExecuted {
		t.Errorf("SitesExecuted %d after the second run, %d after the first", second.SitesExecuted, first.SitesExecuted)
	}
	keys := siteKeys(prog.Mod)
	perKey := make(map[perf.SiteKey]int64)
	for id, n := range once {
		if got := second.Coverage[id].Execs; got != 2*n {
			t.Errorf("%s: %d execs after two identical runs, want %d", id, got, 2*n)
		}
		perKey[keys[id]] += 2 * n
	}
	// Each flush publishes a delta, so the profiler's total matches the
	// cumulative count rather than double-counting run one. It keys by
	// rendered text, which several sites can share.
	for k, want := range perKey {
		if st, _ := sess.Sites.Get(k.Func, k.Instr); st.Count != want {
			t.Errorf("@%s [%s]: site profiler counts %d, want %d", k.Func, k.Instr, st.Count, want)
		}
	}
}

// TestUndominatedUseFaults: a hand-built function whose use is not
// dominated by its def cannot be decoded. Its first call ends the run
// with a typed runtime fault naming the instruction, without a panic
// and without falling back to the reference interpreter.
func TestUndominatedUseFaults(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	entry, then, join := f.NewBlock("entry"), f.NewBlock("then"), f.NewBlock("join")
	b := ir.NewBuilder(f, entry)
	b.CondBr(ir.ConstInt(ir.I1, 1), then, join)
	b.SetBlock(then)
	x := b.Bin(ir.OpAdd, ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2))
	b.Br(join)
	b.SetBlock(join)
	b.Ret(x)

	sess := obs.Start(&obs.Session{Metrics: obs.NewRegistry()})
	defer obs.Stop()
	res := mustRun(t, vm.New(mod, vm.Config{Seed: 7}), "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultRuntime {
		t.Fatalf("fault = %v, want runtime", res.Fault)
	}
	if res.Fault.Func != "main" || !strings.HasPrefix(res.Fault.Instr, "ret ") {
		t.Errorf("fault names @%s [%s], want the ret in @main", res.Fault.Func, res.Fault.Instr)
	}
	if !strings.Contains(res.Fault.Err.Error(), "not dominated") {
		t.Errorf("fault reason %q does not name the dominance failure", res.Fault.Err)
	}
	if n := sess.Metrics.Counter("vm.engine.reference_calls").Value(); n != 0 {
		t.Errorf("vm.engine.reference_calls = %d, want 0", n)
	}

	// The reference oracle evaluates lazily: the path taken defines x.
	ref := mustRun(t, vm.New(mod, vm.Config{Seed: 7, Reference: true}), "main")
	if ref.Fault != nil || ref.Ret != 3 {
		t.Errorf("reference run: ret %d, fault %v; want 3, none", ref.Ret, ref.Fault)
	}
}
