package fuzz

// The differential oracle and the per-worker evaluation state. Each
// target's program under each scheme is built once per Run or Replay
// and shared by every worker: a machine only reads its module, so many
// machines may run one program at once. A worker owns just one
// reusable coverage map. An evaluation runs the input under all four
// schemes on fresh machines, harvests branch coverage from the vanilla
// run (the schemes insert no user-visible branches, so vanilla coverage
// is the cheapest complete signal), and classifies each defense verdict
// against the vanilla ground truth.

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vm"
)

// fuzzFuel is the per-run fuel budget. Two orders of magnitude above
// the longest corpus case, two below vm.DefaultFuel, so a mutant that
// provokes a runaway loop costs milliseconds, not seconds.
const fuzzFuel = int64(2_000_000)

// schemes is the oracle's scheme order: index 0 is the vanilla ground
// truth, the rest are the defenses judged against it.
var schemes = core.Schemes

// verdict is one scheme's judgement of one input. hang marks an
// out-of-fuel run, which is excluded from finding classification: the
// defenses execute strictly more instructions than vanilla, so a
// near-budget input can time out under one scheme only without any
// semantic divergence.
type verdict struct {
	v    attack.Verdict
	hang bool
}

func (w verdict) String() string {
	if w.hang {
		return "hang"
	}
	return w.v.String()
}

// evalOut is the oracle's answer for one (target, input) pair.
type evalOut struct {
	// input is the evaluated input (same backing array the caller gave).
	input []byte
	// verdicts is indexed like schemes.
	verdicts [4]verdict
	// edges/digest describe the vanilla run's branch coverage.
	edges  int
	hits   []int32
	digest uint64
}

// finding classes, in triage-severity order.
const (
	classBypass   = "bypass"
	classMissed   = "missed"
	classFalsePos = "false-positive"
	classDiverge  = "divergence"
)

// classifyPair judges one defense verdict against the vanilla ground
// truth; "" means agreement (no finding). Pairs with a hang on either
// side never classify.
func classifyPair(vanilla, defense verdict) string {
	if vanilla.hang || defense.hang {
		return ""
	}
	g, d := vanilla.v, defense.v
	switch {
	case g == attack.VerdictBent && d == attack.VerdictBent:
		return classBypass
	case g == attack.VerdictBent && d == attack.VerdictClean:
		return classMissed
	case g == attack.VerdictClean && d == attack.VerdictDetected:
		return classFalsePos
	case g == attack.VerdictClean && (d == attack.VerdictBent || d == attack.VerdictCrashed):
		return classDiverge
	case g == attack.VerdictCrashed && d == attack.VerdictBent:
		return classDiverge
	}
	return ""
}

// buildPipeline is the compile/harden pipeline every program build in
// this package flows through. It defaults to the process-wide pipeline
// and is swapped at most once, at startup, by UsePipeline.
var buildPipeline = core.DefaultPipeline()

// UsePipeline routes all program builds — worker tables, replay, the
// -repro matrix — through pl (e.g. one opened over a -cache-dir). Call
// before Run/Replay; the pipeline is read without synchronization.
func UsePipeline(pl *core.Pipeline) { buildPipeline = pl }

// programs is one target's built program under each scheme, indexed
// like schemes.
type programs [4]*core.Program

// buildPrograms builds t under every scheme.
func buildPrograms(t *Target) (*programs, error) {
	var ps programs
	for i, s := range schemes {
		p, err := buildPipeline.Build(t.Name, t.Source, s)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return &ps, nil
}

// worker is one evaluation lane of the pool.
type worker struct {
	cov *vm.Coverage
}

func newWorker() *worker {
	return &worker{cov: vm.NewCoverage()}
}

// run executes input on a fresh machine for the program. cov, when
// non-nil, receives the run's branch coverage. flight arms the flight
// recorder (triage re-runs only; the hot loop runs disarmed).
func runInput(p *core.Program, input []byte, cov *vm.Coverage, flight int) (*vm.Result, error) {
	m := vm.New(p.Mod, vm.Config{Seed: p.Seed, Fuel: fuzzFuel, Cover: cov, Flight: flight})
	m.Stdin.SetInput(input)
	return m.Run("main")
}

// classifyRun maps a run result to a verdict, folding resource-budget
// exhaustion (fuel, page quota) into the hang marker: schemes consume
// both asymmetrically, so treating either as a crash would flood the
// differential oracle with budget artifacts.
func classifyRun(res *vm.Result) verdict {
	if res.Fault != nil && (res.Fault.Kind == vm.FaultOOF || res.Fault.Kind == vm.FaultOOM) {
		return verdict{hang: true}
	}
	return verdict{v: attack.Classify(res)}
}

// eval runs input under every scheme and reports verdicts + coverage.
func (w *worker) eval(ps *programs, input []byte) (*evalOut, error) {
	out := &evalOut{input: input}
	for i, p := range ps {
		var cov *vm.Coverage
		if i == 0 {
			w.cov.Reset()
			cov = w.cov
		}
		res, err := runInput(p, input, cov, 0)
		if err != nil {
			return nil, fmt.Errorf("fuzz: run %s/%v: %w", p.Mod.Name, p.Scheme, err)
		}
		out.verdicts[i] = classifyRun(res)
	}
	out.edges = w.cov.Edges()
	out.hits = append([]int32(nil), w.cov.Hits(nil)...)
	out.digest = w.cov.Digest()
	return out, nil
}

// replay re-runs input on p with the flight recorder armed and returns
// the result — the triage path that attaches forensics to a finding.
func replay(p *core.Program, input []byte) (*vm.Result, error) {
	return runInput(p, input, nil, obs.DefaultFlightWindow)
}
