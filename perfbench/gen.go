package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/workload"
)

// genProgram is one seeded draw: a scaled paper profile's generated
// mini-C source and the benign input it consumes.
type genProgram struct {
	Name, Source, Stdin string
}

// knobs lists the profile knobs the generator scales: the static
// structure, and the run length through HotRounds alone. Workers and the
// loop trip counts stay as calibrated; they multiply into the run length,
// so scaling each of them would make it a product of factors (0.06-5x),
// a heavy tail no run-to-run tail metric could hold steady.
func knobs(p *workload.Profile) []*int {
	return []*int{
		&p.HotRounds,
		&p.TaintedScalarBr, &p.TaintedPtrBr, &p.TaintedStructBr, &p.UntaintedBr, &p.DeepChainBr,
		&p.ICInLoop, &p.HeapVulnBufs, &p.HeapColdBufs,
		&p.PrintICs, &p.CopyICs, &p.ScanICs, &p.GetICs, &p.PutICs, &p.MapICs,
		&p.ColdBranches, &p.ColdHostileBr, &p.ColdDeepBr,
	}
}

// drawProfile scales knob j of base by factor(j), a value in
// [0.5, 1.5]. A knob that is non-zero stays at least 1, so a scaled
// program keeps the shape (channel categories, branch classes, heap
// buffers) of its parent.
func drawProfile(base workload.Profile, idx int, factor func(j int) float64) workload.Profile {
	p := base
	for j, v := range knobs(&p) {
		if *v != 0 {
			*v = max(1, int(math.Round(float64(*v)*factor(j))))
		}
	}
	// Each in-loop channel call k copies 8+4k bytes into a 24-byte
	// buffer, so the generator supports at most four; a fifth would
	// overflow on benign input.
	p.ICInLoop = min(p.ICInLoop, 4)
	// The cold padding carries the hostile and deep cold branches.
	if p.ColdHostileBr+p.ColdDeepBr > p.ColdBranches {
		p.ColdBranches = p.ColdHostileBr + p.ColdDeepBr
	}
	p.Name = fmt.Sprintf("gen%d.%s", idx, base.Name)
	return p
}

// drawPrograms generates a stream's draw of n programs. Draws are
// stratified so that a metric over them depends little on the seed:
// each block of 16 programs takes every paper profile once, in seeded
// order, and over the draw's b blocks a profile's b factors for each
// knob fall one in each b-th of [0.5, 1.5] (Latin hypercube sampling).
// The seed moves the order and the factors within their strata. Sources
// come from workload.Generate, not the process-wide workload.Source
// memo, so no run inherits generation work from an earlier one.
func drawPrograms(stream int64, n int) []genProgram {
	profiles := workload.Profiles()
	k := len(profiles)
	blocks := (n + k - 1) / k
	rng := rand.New(rand.NewSource(stream))
	strata := make([][][]int, k) // profile -> knob -> block -> stratum
	for p := range strata {
		strata[p] = make([][]int, len(knobs(&workload.Profile{})))
		for j := range strata[p] {
			strata[p][j] = rng.Perm(blocks)
		}
	}
	out := make([]genProgram, n)
	var order []int
	for i := range out {
		if i%k == 0 {
			order = rng.Perm(k)
		}
		prof, blk := order[i%k], i/k
		p := drawProfile(profiles[prof], i, func(j int) float64 {
			return 0.5 + (float64(strata[prof][j][blk])+rng.Float64())/float64(blocks)
		})
		out[i] = genProgram{Name: p.Name, Source: workload.Generate(&p), Stdin: workload.Stdin(&p)}
	}
	return out
}
