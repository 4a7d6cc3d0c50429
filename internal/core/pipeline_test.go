package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/workload"
)

// withMetrics runs fn under a fresh obs metrics session and returns the
// registry for counter assertions.
func withMetrics(t *testing.T, fn func()) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	obs.Start(&obs.Session{Metrics: reg})
	defer obs.Stop()
	fn()
	return reg
}

func counter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// TestPipelineOneCompilePerSource is the acceptance check for the
// staged pipeline: building one source under every scheme — including
// concurrent duplicate requests — pays exactly one front-end compile
// and one harden per scheme.
func TestPipelineOneCompilePerSource(t *testing.T) {
	pl := core.NewPipeline()
	reg := withMetrics(t, func() {
		var wg sync.WaitGroup
		for rep := 0; rep < 3; rep++ {
			for _, s := range core.Schemes {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := pl.Build("t", prog, s); err != nil {
						t.Error(err)
					}
				}()
			}
		}
		wg.Wait()
	})
	if got := counter(reg, "pipeline.compile.misses"); got != 1 {
		t.Errorf("compile misses = %d, want exactly 1 for one source", got)
	}
	if got := counter(reg, "pipeline.harden.misses"); got != int64(len(core.Schemes)) {
		t.Errorf("harden misses = %d, want one per scheme (%d)", got, len(core.Schemes))
	}
	if counter(reg, "pipeline.compile.hits")+counter(reg, "pipeline.harden.hits") == 0 {
		t.Error("duplicate requests must be served as memo hits")
	}
}

// TestProgramRunsConcurrently: a machine only reads its module, so one
// built Program serves many machines at once. For the quick profiles
// (one hot round) and the attack corpus under every scheme, several
// goroutines run the same Program together; each result must equal a
// sequential run's, and the module's encoding must not change. Two
// Builds of one key must also run observationally identically.
func TestProgramRunsConcurrently(t *testing.T) {
	pl := core.NewPipeline()
	a, err := pl.Build("t", prog, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.Build("t", prog, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Run("bob\n")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run("bob\n")
	if err != nil {
		t.Fatal(err)
	}
	if ra.Ret != rb.Ret || string(ra.Stdout) != string(rb.Stdout) || *ra.Counters != *rb.Counters {
		t.Fatal("cached Build must be observationally identical to a fresh one")
	}

	type job struct {
		name, src string
		stdins    []string
	}
	var jobs []job
	for _, n := range []string{"519.lbm_r", "502.gcc_r", "nginx"} {
		p := *workload.ProfileByName(n)
		p.HotRounds = 1
		jobs = append(jobs, job{p.Name, workload.Source(&p), []string{workload.Stdin(&p)}})
	}
	for _, c := range attack.Corpus() {
		jobs = append(jobs, job{c.Name, c.Source, []string{c.Benign, c.Malicious}})
	}
	// outcome is everything a run reports that must not depend on who
	// else runs the program.
	outcome := func(p *core.Program, stdin string) string {
		res, err := p.Run(stdin)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("ret=%d fault=%v sites=%d stdout=%q counters=%+v",
			res.Ret, res.Fault, res.SitesExecuted, res.Stdout, *res.Counters)
	}
	const runners = 3
	for _, j := range jobs {
		for _, s := range core.Schemes {
			p, err := pl.Build(j.name, j.src, s)
			if err != nil {
				t.Fatal(err)
			}
			before, err := ir.EncodeModule(p.Mod)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, in := range j.stdins {
				want = append(want, outcome(p, in))
			}
			got := make([][]string, runners)
			var wg sync.WaitGroup
			for r := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, in := range j.stdins {
						got[r] = append(got[r], outcome(p, in))
					}
				}()
			}
			wg.Wait()
			for r := range got {
				if !slices.Equal(got[r], want) {
					t.Errorf("%s/%v runner %d:\n got %q\nwant %q", j.name, s, r, got[r], want)
				}
			}
			after, err := ir.EncodeModule(p.Mod)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("%s/%v: running the program changed its module", j.name, s)
			}
		}
	}
}

// TestPipelineDiskCache covers the persistent store: a second pipeline
// over the same directory (a stand-in for a second process) serves
// compile and harden from disk, and the resulting program behaves
// bit-identically to the cold one.
func TestPipelineDiskCache(t *testing.T) {
	dir := t.TempDir()

	pl1, err := core.OpenPipeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cold *core.Program
	regCold := withMetrics(t, func() {
		if cold, err = pl1.Build("t", prog, core.SchemePythia); err != nil {
			t.Fatal(err)
		}
	})
	if got := counter(regCold, "pipeline.compile.misses"); got != 1 {
		t.Fatalf("cold compile misses = %d", got)
	}
	if got := counter(regCold, "artifact.put.writes"); got != 2 {
		t.Fatalf("cold run must persist compile+harden, wrote %d", got)
	}
	if !cold.Cold {
		t.Fatal("build that ran the front end is not marked cold")
	}
	if again, err := pl1.Build("t", prog, core.SchemePythia); err != nil || again.Cold {
		t.Fatalf("memoized rebuild marked cold (err %v)", err)
	}

	pl2, err := core.OpenPipeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	var warm *core.Program
	regWarm := withMetrics(t, func() {
		if warm, err = pl2.Build("t", prog, core.SchemePythia); err != nil {
			t.Fatal(err)
		}
	})
	if got := counter(regWarm, "pipeline.compile.disk_hits"); got != 1 {
		t.Fatalf("warm compile disk hits = %d", got)
	}
	if got := counter(regWarm, "pipeline.harden.disk_hits"); got != 1 {
		t.Fatalf("warm harden disk hits = %d", got)
	}
	if got := counter(regWarm, "pipeline.compile.misses") + counter(regWarm, "pipeline.harden.misses"); got != 0 {
		t.Fatalf("warm run recompiled %d stages", got)
	}
	if warm.Cold {
		t.Fatal("build served from the artifact store marked cold")
	}

	if cold.Mod.String() != warm.Mod.String() {
		t.Fatal("disk round-trip changed the module")
	}
	if c, w := harden.SiteIDs(cold.Mod), harden.SiteIDs(warm.Mod); !slices.Equal(c, w) || len(c) == 0 {
		t.Fatalf("site ids changed across disk: %d cold vs %d warm", len(c), len(w))
	}
	// The harden artifact is the bare module encoding, nothing framed
	// around it.
	compiled, ok := pl2.Store().Get(artifact.Key("compile", core.PipelineVersion, strconv.Itoa(ir.SerialVersion), "t", prog))
	if !ok {
		t.Fatal("compile artifact missing")
	}
	raw, ok := pl2.Store().Get(artifact.Key("harden", core.PipelineVersion, strconv.Itoa(ir.SerialVersion),
		artifact.Key(string(compiled)), core.SchemePythia.String()))
	if !ok {
		t.Fatal("harden artifact missing")
	}
	if mod, err := ir.DecodeModule(raw); err != nil || mod.String() != warm.Mod.String() {
		t.Fatalf("harden artifact is not the hardened module (err %v)", err)
	}
	rc, err := cold.Run("bob\n")
	if err != nil {
		t.Fatal(err)
	}
	rw, err := warm.Run("bob\n")
	if err != nil {
		t.Fatal(err)
	}
	if rc.Ret != rw.Ret || string(rc.Stdout) != string(rw.Stdout) || *rc.Counters != *rw.Counters {
		t.Fatal("warm program diverged from cold program")
	}
}

// TestPipelineCorruptArtifactsRecompiled truncates every persisted
// entry and demands a fresh pipeline silently recompile and rewrite.
func TestPipelineCorruptArtifactsRecompiled(t *testing.T) {
	dir := t.TempDir()
	pl1, err := core.OpenPipeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pl1.Build("t", prog, core.SchemeCPA)
	if err != nil {
		t.Fatal(err)
	}

	n := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		n++
		return os.Truncate(path, info.Size()/2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no artifacts were persisted")
	}

	pl2, err := core.OpenPipeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt *core.Program
	reg := withMetrics(t, func() {
		if rebuilt, err = pl2.Build("t", prog, core.SchemeCPA); err != nil {
			t.Fatal(err)
		}
	})
	if got := counter(reg, "artifact.get.corrupt"); got == 0 {
		t.Error("corrupt entries must be detected, not served")
	}
	if got := counter(reg, "pipeline.compile.misses"); got != 1 {
		t.Errorf("corrupt compile artifact must force a recompile, misses = %d", got)
	}
	if rebuilt.Mod.String() != cold.Mod.String() {
		t.Fatal("recompiled module differs from the original")
	}
	// The rewrite restored the entries: a third pipeline hits disk again.
	pl3, err := core.OpenPipeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg3 := withMetrics(t, func() {
		if _, err := pl3.Build("t", prog, core.SchemeCPA); err != nil {
			t.Fatal(err)
		}
	})
	if got := counter(reg3, "pipeline.compile.disk_hits") + counter(reg3, "pipeline.harden.disk_hits"); got != 2 {
		t.Errorf("entries not restored after corruption: %d disk hits", got)
	}
}

// TestPipelineCompileOwnsModule: Compile hands out caller-owned
// modules too.
func TestPipelineCompileOwnsModule(t *testing.T) {
	pl := core.NewPipeline()
	a, err := pl.Compile("t", prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.Compile("t", prog)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("Compile handed out a shared module")
	}
	if a.String() != b.String() {
		t.Fatal("Compile results must be identical")
	}
}

// TestPipelineStats: the memoization footprint counts distinct compile
// and harden entries, and Store is nil only for in-process pipelines.
func TestPipelineStats(t *testing.T) {
	pl := core.NewPipeline()
	if st := pl.Stats(); st.Compiles != 0 || st.Hardens != 0 {
		t.Fatalf("fresh pipeline stats = %+v", st)
	}
	if pl.Store() != nil {
		t.Fatal("in-process pipeline must have a nil store")
	}
	src := "int main() { return 3; }"
	for _, s := range []core.Scheme{core.SchemeVanilla, core.SchemePythia} {
		if _, err := pl.Build("stats-probe", src, s); err != nil {
			t.Fatal(err)
		}
	}
	// Same source again: no new entries.
	if _, err := pl.Build("stats-probe", src, core.SchemePythia); err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); st.Compiles != 1 || st.Hardens != 2 {
		t.Fatalf("stats = %+v, want 1 compile / 2 hardens", st)
	}

	dp, err := core.OpenPipeline(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if dp.Store() == nil {
		t.Fatal("disk-backed pipeline must expose its store")
	}
}
