package slice_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/slice"
	"repro/internal/workload"
)

// analysisFingerprint is the SHA-256 of every analysis output over the
// 16 paper profiles and the attack corpus (see fingerprintReport),
// recorded with the map-based slicer that preceded the dense one. Any
// change to Algorithm 1, the input-channel construction or their
// intersection moves it; a pure performance change must not.
const analysisFingerprint = "393a62de625611587c306f963b16ab0d0bce5613289942b181b378e525014412"

// fingerprintSources returns the programs the fingerprint covers, in a
// fixed order.
func fingerprintSources() (names, srcs []string) {
	for _, p := range workload.Profiles() {
		names = append(names, p.Name)
		srcs = append(srcs, workload.Generate(&p))
	}
	for _, c := range attack.Corpus() {
		names = append(names, c.Name)
		srcs = append(srcs, c.Source)
	}
	return names, srcs
}

// valueKey names a value stably across runs: instructions and params
// by function, globals by name.
func valueKey(v ir.Value) string {
	switch x := v.(type) {
	case *ir.Instr:
		fn := "?"
		if x.Block != nil {
			fn = x.Block.Parent.FName
		}
		return fmt.Sprintf("%s#%d%s", fn, x.ID, x.Operand())
	case *ir.Param:
		return fmt.Sprintf("%s:param%d", x.Parent.FName, x.Index)
	default:
		return v.Operand()
	}
}

func sortedKeys(set map[ir.Value]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, valueKey(v))
	}
	sort.Strings(out)
	return out
}

// writeSlice hashes one branch slice: sorted roots, |Values|,
// PointerVars, sorted IC calls, Distance and Terminated.
func writeSlice(w io.Writer, s *slice.BranchSlice) {
	fmt.Fprintf(w, "roots=%v values=%d ptr=%d", sortedKeys(s.Roots), len(s.Values), s.PointerVars)
	ics := make([]string, len(s.ICs))
	for i, ic := range s.ICs {
		ics[i] = valueKey(ic.Call)
	}
	sort.Strings(ics)
	fmt.Fprintf(w, " ics=%v dist=%d term=%v\n", ics, s.Distance(), s.Terminated)
}

// fingerprintReport hashes every output of one module's analysis into h.
func fingerprintReport(h hash.Hash, vr *slice.VulnReport) {
	for _, b := range vr.Branches {
		fmt.Fprintf(h, "branch %s class=%v\n", valueKey(b.Branch), b.Class)
		writeSlice(h, b.Ground)
		writeSlice(h, vr.Analysis.BranchDecomposition(b.Branch, slice.ModeFull))
		writeSlice(h, vr.Analysis.BranchDecomposition(b.Branch, slice.ModeDFI))
		fmt.Fprintf(h, "secured dfi=%v full=%v\n",
			vr.Analysis.SecuredBy(b, slice.ModeDFI), vr.Analysis.SecuredBy(b, slice.ModeFull))
	}
	fmt.Fprintf(h, "cpa=%v\npythia=%v\ntaint=%v\n",
		sortedKeys(vr.CPAVars), sortedKeys(vr.PythiaVars), sortedKeys(vr.Taint.Roots))
}

// TestAnalysisFingerprint pins the analysis outputs byte for byte.
func TestAnalysisFingerprint(t *testing.T) {
	names, srcs := fingerprintSources()
	h := sha256.New()
	for i, src := range srcs {
		mod, err := core.CompileC(names[i], src)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		fmt.Fprintf(h, "== %s\n", names[i])
		fingerprintReport(h, slice.AnalyzeVulnerabilities(mod))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != analysisFingerprint {
		t.Fatalf("analysis fingerprint = %s, want %s", got, analysisFingerprint)
	}
}

// TestBranchDecompositionConcurrent decomposes every branch of one
// shared Analysis from 8 goroutines at once; each result must equal the
// sequential one (bench shares warm analyses across workers).
func TestBranchDecompositionConcurrent(t *testing.T) {
	p := workload.ProfileByName("505.mcf_r")
	mod, err := core.CompileC(p.Name, workload.Generate(p))
	if err != nil {
		t.Fatal(err)
	}
	vr := slice.AnalyzeVulnerabilities(mod)
	modes := []slice.Mode{slice.ModeGround, slice.ModeFull, slice.ModeDFI}
	digest := func(b slice.BranchInfo, m slice.Mode) string {
		h := sha256.New()
		writeSlice(h, vr.Analysis.BranchDecomposition(b.Branch, m))
		return hex.EncodeToString(h.Sum(nil))
	}
	want := make(map[[2]int]string)
	for i, b := range vr.Branches {
		for _, m := range modes {
			want[[2]int{i, int(m)}] = digest(b, m)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range vr.Branches {
				i := (k + g*len(vr.Branches)/8) % len(vr.Branches)
				for _, m := range modes {
					if got := digest(vr.Branches[i], m); got != want[[2]int{i, int(m)}] {
						errs <- fmt.Sprintf("goroutine %d: branch %d mode %d differs from the sequential slice", g, i, m)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
