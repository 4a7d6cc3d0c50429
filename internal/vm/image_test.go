package vm_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/vm"
)

// hugeGlobal pushes the format string's global past mem.GlobalLimit, so
// its initial bytes cannot be written into the image.
const hugeGlobal = `char big[400000000]; int main() { printf("hi %d\n", 1); return 0; }`

// TestImageLayoutErrorIsAFault: a global the image cannot hold is the
// program's fault, not a host panic. vm.New succeeds, and every Run on
// either engine ends in a FaultRuntime naming the global.
func TestImageLayoutErrorIsAFault(t *testing.T) {
	initMod, err := minic.Compile("t", hugeGlobal)
	if err != nil {
		t.Fatal(err)
	}

	// A sealed scalar behind the same huge global: the seal write is the
	// one that fails.
	sealMod := ir.NewModule("t")
	sealMod.NewGlobal("big", ir.ArrayOf(ir.I8, 400000000), nil)
	g := sealMod.NewGlobal("cfg", ir.ArrayOf(ir.I64, 2), nil)
	g.Sealed = true
	f := sealMod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	chk := ir.NewInstr(ir.OpCheckLoad, f.GenName("c"), ir.I64, g)
	b.Cur.Append(chk)
	b.Ret(chk)

	for _, c := range []struct {
		name string
		mod  *ir.Module
		want string
	}{
		{"init", initMod, "global @str."},
		{"seal", sealMod, "sealing global @cfg"},
	} {
		for _, ref := range []bool{false, true} {
			m := vm.New(c.mod, vm.Config{Seed: 7, Reference: ref})
			for run := 0; run < 2; run++ {
				res := mustRun(t, m, "main")
				if res.Fault == nil || res.Fault.Kind != vm.FaultRuntime {
					t.Fatalf("%s ref=%v run %d: fault = %v, want runtime", c.name, ref, run, res.Fault)
				}
				if msg := res.Fault.Err.Error(); !strings.Contains(msg, c.want) || !strings.Contains(msg, "unmapped segment") {
					t.Errorf("%s ref=%v run %d: fault %q does not name %q", c.name, ref, run, msg, c.want)
				}
				if len(res.Stdout) != 0 || res.Counters.Instrs != 0 {
					t.Errorf("%s ref=%v run %d: ran code on a broken image", c.name, ref, run)
				}
			}
		}
	}
}

// TestHugeFrameHostMemory: a frame far past the page quota faults oom
// under every scheme without the host allocating anything near the
// frame's size to zero it.
func TestHugeFrameHostMemory(t *testing.T) {
	const src = "int main() { char a[200000000]; a[0] = 1; return a[0]; }"
	for _, s := range core.Schemes {
		p, err := core.Build("hugeframe", src, s)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := vm.New(p.Mod, vm.Config{Seed: p.Seed, MaxPages: 1024})
		res := mustRun(t, m, "main")
		runtime.ReadMemStats(&after)
		if res.Fault == nil || res.Fault.Kind != vm.FaultOOM {
			t.Fatalf("%v: fault = %v, want oom", s, res.Fault)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
			t.Errorf("%v: run allocated %d MiB of host memory", s, d>>20)
		}
	}
}
