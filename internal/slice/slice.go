// Package slice implements the Pythia paper's two program-slicing
// analyses and their intersection:
//
//   - Branch decomposition (Algorithm 1): the backward slice of every
//     conditional branch's predicate over Use-Def chains, extended
//     through memory with alias information — producing the *branch
//     sub-variable* set (Def. 4.1).
//   - Input-channel construction: the forward slice of every value an
//     input channel can write — the set of variables an attacker can
//     influence.
//   - Vulnerable variables: the intersection of the two (§4.1), the set
//     the defenses instrument.
//
// Two slicing modes reproduce the paper's comparison: ModeFull follows
// pointers using the alias analysis (Pythia), while ModeDFI terminates
// at pointer arithmetic and field-sensitive accesses, exactly the
// limitation of the DFI baseline the paper exploits (§6.2).
package slice

import (
	"repro/internal/alias"
	"repro/internal/dataflow"
	"repro/internal/inputchan"
	"repro/internal/ir"
)

// Mode selects the slicing policy.
type Mode int

// Slicing modes.
const (
	// ModeFull is Pythia's slicer: alias-aware, interprocedural up to
	// PythiaDepth.
	ModeFull Mode = iota
	// ModeDFI is the baseline: intraprocedural, stops at pointer
	// arithmetic (non-constant GEP indices, int/ptr casts) and at
	// field-sensitive accesses (GEP into struct fields).
	ModeDFI
	// ModeGround is the oracle used to score both techniques: like
	// ModeFull but with GroundDepth interprocedural steps.
	ModeGround
)

// Interprocedural depth limits. Pythia's is finite to model the paper's
// admitted truncation under "complex inter-procedural alias analysis".
const (
	PythiaDepth = 3
	GroundDepth = 6
)

// Analysis caches the per-module structures slicing needs. It numbers
// every slice-able value of the module with a dense slot at
// construction, so the module must not change while the Analysis is in
// use.
type Analysis struct {
	Mod   *ir.Module
	AA    *alias.Result
	Sites []inputchan.CallSite

	// Taint is the input-channel forward slice, computed once at
	// construction; the backward slicer consults it to model pointer
	// misdirection (§3: an attacker-controlled stride can position a
	// pointer onto any frame-local object).
	Taint *Taint

	// Dense numbering (dense.go): a defined function's instructions take
	// slots instr+Instr.ID, its params param+Index; globals follow.
	funcSlots  map[*ir.Func]funcSlots
	globalSlot map[*ir.Global]int32
	nslots     int
	// taintRoots and taintVals are Taint as slot bitsets.
	taintRoots, taintVals bitset

	chains    map[*ir.Func]*dataflow.Chains
	callersOf map[*ir.Func][]*ir.Instr
	// globalStores maps each global to every store writing it anywhere.
	globalStores map[*ir.Global][]*ir.Instr
	// unresolvedStores lists stores whose address has no static root,
	// per function — candidates for alias-based slice extension.
	unresolvedStores map[*ir.Func][]unresolvedStore
	// icByCall maps an input-channel call instruction to its site info.
	icByCall map[*ir.Instr]inputchan.CallSite
	// writers maps a memory root's slot to the indices into Sites of the
	// channels whose destination may be that root, in Sites order.
	writers map[int32][]int32
	// siteSlot is the slot of each Sites[i].Call.
	siteSlot []int32
}

// unresolvedStore is a store without a static address root.
type unresolvedStore struct {
	st *ir.Instr
	// tainted reports that the address computation involves an
	// input-channel-tainted value.
	tainted bool
}

// NewAnalysis scans mod and prepares the shared analysis state.
func NewAnalysis(mod *ir.Module) *Analysis {
	a := &Analysis{
		Mod:              mod,
		AA:               alias.Analyze(mod),
		Sites:            inputchan.Scan(mod),
		chains:           make(map[*ir.Func]*dataflow.Chains),
		callersOf:        make(map[*ir.Func][]*ir.Instr),
		globalStores:     make(map[*ir.Global][]*ir.Instr),
		unresolvedStores: make(map[*ir.Func][]unresolvedStore),
		icByCall:         make(map[*ir.Instr]inputchan.CallSite),
		writers:          make(map[int32][]int32),
	}
	for _, f := range mod.Defined() {
		f.Renumber()
		a.chains[f] = dataflow.Build(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpCall:
					a.callersOf[in.Callee] = append(a.callersOf[in.Callee], in)
				case ir.OpStore:
					root := dataflow.MemRoot(in.Args[1])
					if g, ok := root.(*ir.Global); ok {
						a.globalStores[g] = append(a.globalStores[g], in)
					}
					if root == nil {
						a.unresolvedStores[f] = append(a.unresolvedStores[f], unresolvedStore{st: in})
					}
				}
			}
		}
	}
	a.number()
	c := slotter{a: a}
	// Channel writers: each site goes under every root a destination
	// argument may name, directly or through its points-to set.
	a.siteSlot = make([]int32, len(a.Sites))
	for i, site := range a.Sites {
		a.icByCall[site.Call] = site
		a.siteSlot[i] = c.slot(site.Call)
		for j, arg := range site.Call.Args {
			if !destArg(site, j) {
				continue
			}
			if root := dataflow.MemRoot(arg); root != nil {
				a.addWriter(c.slot(root), i)
			}
			for _, obj := range a.AA.PointsTo(arg) {
				if r := objectRoot(obj); r != nil {
					a.addWriter(c.slot(r), i)
				}
			}
		}
	}
	a.Taint = a.inputChannelConstruction()
	for _, us := range a.unresolvedStores {
		for i := range us {
			us[i].tainted = a.taintedAddress(&c, us[i].st.Args[1], 0)
		}
	}
	return a
}

// addWriter records Sites[site] as a channel that may write the root in
// slot. Sites are added in order, so a repeat is always the last entry.
func (a *Analysis) addWriter(slot int32, site int) {
	ws := a.writers[slot]
	if n := len(ws); n > 0 && ws[n-1] == int32(site) {
		return
	}
	a.writers[slot] = append(ws, int32(site))
}

// Chains returns the cached def-use chains for f.
func (a *Analysis) Chains(f *ir.Func) *dataflow.Chains { return a.chains[f] }

// BranchSlice is the result of decomposing one conditional branch.
type BranchSlice struct {
	Branch *ir.Instr
	Fn     *ir.Func
	Mode   Mode

	// Instrs is the set of instructions in the slice (all functions),
	// each once, in discovery order.
	Instrs []*ir.Instr
	// Roots is the branch sub-variable set restricted to memory roots
	// (allocas, globals, pointer params) — the instrumentable variables.
	Roots map[ir.Value]bool
	// Values is every SSA value in the sub-variable set, each once, in
	// discovery order.
	Values []ir.Value
	// ICs are the input-channel calls whose writes reach the slice.
	ICs []inputchan.CallSite
	// Terminated reports that the slicer stopped early at pointer
	// arithmetic (only in ModeDFI).
	Terminated bool
	// PointerVars counts pointer-typed members of the sub-variable set
	// (the Fig. 7a metric).
	PointerVars int
}

// ReachesIC reports whether the slice covers at least one input channel.
func (s *BranchSlice) ReachesIC() bool { return len(s.ICs) > 0 }

// ContainsIC reports whether the slice covers the given channel call.
func (s *BranchSlice) ContainsIC(call *ir.Instr) bool {
	for _, c := range s.ICs {
		if c.Call == call {
			return true
		}
	}
	return false
}

// Distance is the attack distance (Def. 2.4): the static instruction
// span between the start of the protected slice and the branch.
func (s *BranchSlice) Distance() int {
	minID := s.Branch.ID
	span := 0
	perFunc := make(map[*ir.Func][2]int) // min, max IDs of foreign spans
	for _, in := range s.Instrs {
		if in.Block == nil {
			continue
		}
		f := in.Block.Parent
		if f == s.Fn {
			if in.ID < minID {
				minID = in.ID
			}
			continue
		}
		mm, ok := perFunc[f]
		if !ok {
			mm = [2]int{in.ID, in.ID}
		} else {
			if in.ID < mm[0] {
				mm[0] = in.ID
			}
			if in.ID > mm[1] {
				mm[1] = in.ID
			}
		}
		perFunc[f] = mm
	}
	span = s.Branch.ID - minID
	for _, mm := range perFunc {
		span += mm[1] - mm[0] + 1
	}
	return span
}

// BranchDecomposition computes the branch sub-variable set of br
// (Algorithm 1 of the paper) under the given mode. The worklist holds
// (value, depth) tasks; a value reached again at a new depth is decomposed
// again, and PointerVars counts every task.
func (a *Analysis) BranchDecomposition(br *ir.Instr, mode Mode) *BranchSlice {
	s := &BranchSlice{
		Branch: br,
		Fn:     br.Block.Parent,
		Mode:   mode,
		Roots:  make(map[ir.Value]bool),
	}
	sl := newSlicer(a, s)
	defer sl.release()
	sl.push(br.Args[0], 0)
	for len(sl.work) > 0 {
		t := sl.pop()
		if sl.mark(t.slot, inValues) {
			sl.values = append(sl.values, t.v)
		}
		if ir.IsPtr(t.v.Type()) {
			s.PointerVars++
		}
		depth := int(t.depth)
		switch v := t.v.(type) {
		case *ir.Param:
			s.Roots[v] = true
			// Interprocedural: extend into callers' argument values.
			if depth < sl.maxDepth {
				for _, call := range a.callersOf[v.Parent] {
					if v.Index < len(call.Args) {
						sl.addInstr(call)
						sl.push(call.Args[v.Index], depth+1)
					}
				}
			}
		case *ir.Global:
			s.Roots[v] = true
			sl.expandRoot(v, t.slot, depth)
		case *ir.Instr:
			sl.expandInstr(v, t.slot, depth)
		}
	}
	s.Values = exact(sl.values)
	s.Instrs = exact(sl.instrs)
	s.ICs = exact(sl.ics)
	return s
}

// expandInstr adds one defining instruction to the slice and pushes the
// values it depends on.
func (sl *slicer) expandInstr(in *ir.Instr, slot int32, depth int) {
	a, s := sl.a, sl.s
	if sl.mark(slot, inInstrs) {
		sl.instrs = append(sl.instrs, in)
	}
	switch in.Op {
	case ir.OpAlloca:
		s.Roots[in] = true
		sl.expandRoot(in, slot, depth)

	case ir.OpLoad:
		addr := in.Args[0]
		if s.Mode == ModeDFI && isPointerArith(addr) {
			// DFI cannot reason about the address — the slice ends here.
			s.Terminated = true
			return
		}
		root := dataflow.MemRoot(addr)
		if root != nil {
			sl.push(root, depth)
		} else if s.Mode != ModeDFI {
			// Computed address: use alias sets to find the objects this
			// load may read, then follow their definitions.
			for _, obj := range a.AA.PointsTo(addr) {
				if r := objectRoot(obj); r != nil {
					sl.push(r, depth)
				}
			}
		} else {
			s.Terminated = true
		}
		sl.push(addr, depth) // the address computation is part of the slice

	case ir.OpStore:
		// A store reached via a root expansion: the stored value and the
		// address computation both join the slice.
		sl.push(in.Args[0], depth)
		sl.push(in.Args[1], depth)

	case ir.OpCall:
		if isAllocCall(in) {
			// A heap allocation site is itself a branch sub-variable
			// root: the object's contents feed the predicate.
			s.Roots[in] = true
			sl.expandRoot(in, slot, depth)
			return
		}
		if site, ok := a.icByCall[in]; ok {
			if sl.mark(slot, inICs) {
				sl.ics = append(sl.ics, site)
			}
			// The channel's own operands (source buffer etc.) are
			// attacker-reachable; include them.
			for _, arg := range in.Args {
				sl.push(arg, depth)
			}
			return
		}
		if in.Callee.IsDecl() {
			for _, arg := range in.Args {
				sl.push(arg, depth)
			}
			return
		}
		// Defined callee: the returned value's slice continues inside.
		if s.Mode == ModeDFI {
			return // DFI does not cross calls
		}
		if depth < sl.maxDepth {
			for _, b := range in.Callee.Blocks {
				for _, ci := range b.Instrs {
					if ci.Op == ir.OpRet && len(ci.Args) == 1 {
						sl.addInstr(ci)
						sl.push(ci.Args[0], depth+1)
					}
				}
			}
		}
		for _, arg := range in.Args {
			sl.push(arg, depth)
		}

	case ir.OpGEP:
		if s.Mode == ModeDFI && isPointerArith(in) {
			s.Terminated = true
			return
		}
		for _, arg := range in.Args {
			sl.push(arg, depth)
		}

	case ir.OpPhi:
		for _, e := range in.Incoming {
			sl.push(e.Val, depth)
		}

	case ir.OpIntToPtr, ir.OpPtrToInt:
		if s.Mode == ModeDFI {
			s.Terminated = true
			return
		}
		sl.push(in.Args[0], depth)

	default:
		for _, arg := range in.Args {
			sl.push(arg, depth)
		}
	}
}

// expandRoot pushes every definition of the memory root in slot: its
// direct stores, stores through may-aliasing pointers (ModeFull/Ground),
// and input-channel calls that write it.
func (sl *slicer) expandRoot(root ir.Value, slot int32, depth int) {
	a, s := sl.a, sl.s
	// Direct stores (same function for allocas; module-wide for globals).
	switch r := root.(type) {
	case *ir.Global:
		for _, st := range a.globalStores[r] {
			sl.addStore(st, depth)
		}
	case *ir.Instr: // alloca or heap allocation site
		fn := r.Block.Parent
		for _, st := range a.chains[fn].MemDefs[root] {
			sl.addStore(st, depth)
		}
		if s.Mode != ModeDFI {
			// Stores through pointers that may alias this object, or
			// whose address depends on attacker-tainted arithmetic — the
			// pointer-misdirection vector of §3 can position such a
			// pointer onto any object in the frame.
			obj := a.AA.ObjectOf(root)
			for _, u := range a.unresolvedStores[fn] {
				if u.tainted || (obj != nil && a.AA.MayPointToObject(u.st.Args[1], obj)) {
					sl.addStore(u.st, depth)
				}
			}
		}
	}
	// Input channels that write this object.
	for _, i := range a.writers[slot] {
		if sl.mark(a.siteSlot[i], inICs) {
			sl.ics = append(sl.ics, a.Sites[i])
		}
		sl.addInstr(a.Sites[i].Call)
	}
}

// addStore adds a store defining a root to the slice, with the stored
// value and the address computation.
func (sl *slicer) addStore(st *ir.Instr, depth int) {
	sl.addInstr(st)
	sl.push(st.Args[0], depth)
	sl.push(st.Args[1], depth)
}

// destArg mirrors inputchan.isDestArg for resolved sites.
func destArg(site inputchan.CallSite, i int) bool {
	switch site.Call.Callee.FName {
	case "scanf":
		return i >= 1
	case "read":
		return i == 1
	case "printf", "puts":
		return false
	default:
		if site.Kind == ir.KindPrint {
			return false
		}
		return i == 0
	}
}

func maxDepthFor(m Mode) int {
	switch m {
	case ModeDFI:
		return 0
	case ModeGround:
		return GroundDepth
	default:
		return PythiaDepth
	}
}

// isPointerArith reports whether the address value involves arithmetic
// DFI cannot model: a GEP with any non-constant index, a GEP into struct
// fields (field sensitivity), or integer/pointer casts.
func isPointerArith(v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return false
	}
	switch in.Op {
	case ir.OpIntToPtr, ir.OpPtrToInt:
		return true
	case ir.OpGEP:
		base := in.Args[0]
		if pt, ok := base.Type().(*ir.PtrType); ok {
			if _, isStruct := pt.Elem.(*ir.StructType); isStruct {
				return true // field-sensitive case
			}
		}
		for _, idx := range in.Args[1:] {
			if _, isConst := idx.(*ir.Const); !isConst {
				return true
			}
		}
		// Constant-index GEPs chain: check the base too.
		return isPointerArith(base)
	}
	return false
}

// isAllocCall reports whether in allocates heap memory.
func isAllocCall(in *ir.Instr) bool {
	if in.Op != ir.OpCall || in.Callee == nil {
		return false
	}
	switch in.Callee.FName {
	case "malloc", "calloc", "secure_malloc", "mmap":
		return true
	}
	return false
}

// taintedAddress reports whether the address computation v involves an
// input-channel-tainted value (bounded walk).
func (a *Analysis) taintedAddress(c *slotter, v ir.Value, depth int) bool {
	if depth > 6 {
		return false
	}
	if slot := c.slot(v); a.taintVals.has(slot) || a.taintRoots.has(slot) {
		return true
	}
	in, ok := v.(*ir.Instr)
	if !ok {
		return false
	}
	if in.Op == ir.OpLoad {
		if root := dataflow.MemRoot(in.Args[0]); root != nil && a.taintRoots.has(c.slot(root)) {
			return true
		}
	}
	for _, arg := range in.Args {
		if a.taintedAddress(c, arg, depth+1) {
			return true
		}
	}
	for _, e := range in.Incoming {
		if a.taintedAddress(c, e.Val, depth+1) {
			return true
		}
	}
	return false
}

func objectRoot(o *alias.Object) ir.Value {
	switch {
	case o.Alloca != nil:
		return o.Alloca
	case o.Global != nil:
		return o.Global
	case o.Heap != nil:
		return o.Heap
	}
	return nil
}
