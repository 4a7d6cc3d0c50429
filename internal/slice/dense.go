package slice

import (
	"sync"

	"repro/internal/inputchan"
	"repro/internal/ir"
)

// funcSlots are the first slots of a defined function's instructions
// and of its params.
type funcSlots struct{ instr, param int32 }

// number gives every slice-able value of the module a dense slot: each
// defined function's instructions by Instr.ID (Renumber made the IDs
// dense), then its params, then the globals.
func (a *Analysis) number() {
	a.funcSlots = make(map[*ir.Func]funcSlots)
	a.globalSlot = make(map[*ir.Global]int32, len(a.Mod.Globals))
	n := int32(0)
	for _, f := range a.Mod.Defined() {
		fs := funcSlots{instr: n, param: n + int32(f.NumInstrs())}
		a.funcSlots[f] = fs
		n = fs.param + int32(len(f.Params))
	}
	for _, g := range a.Mod.Globals {
		a.globalSlot[g] = n
		n++
	}
	a.nslots = int(n)
}

// eachSlot calls fn for every numbered value.
func (a *Analysis) eachSlot(fn func(slot int32, v ir.Value)) {
	for _, f := range a.Mod.Defined() {
		fs := a.funcSlots[f]
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				fn(fs.instr+int32(in.ID), in)
			}
		}
		for _, p := range f.Params {
			fn(fs.param+int32(p.Index), p)
		}
	}
	for _, g := range a.Mod.Globals {
		fn(a.globalSlot[g], g)
	}
}

// slotter resolves values to slots. It remembers the last function it
// looked up: consecutive lookups nearly always stay in one function, and
// the cache spares them the map lookup.
type slotter struct {
	a  *Analysis
	fn *ir.Func
	fs funcSlots
}

func (c *slotter) funcSlots(f *ir.Func) (funcSlots, bool) {
	if f == nil || f != c.fn {
		fs, ok := c.a.funcSlots[f]
		if !ok {
			return funcSlots{}, false
		}
		c.fn, c.fs = f, fs
	}
	return c.fs, true
}

// slot returns v's slot, or -1 for constants and values outside the
// module.
func (c *slotter) slot(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Instr:
		if x.Block != nil {
			if fs, ok := c.funcSlots(x.Block.Parent); ok {
				return fs.instr + int32(x.ID)
			}
		}
	case *ir.Param:
		if fs, ok := c.funcSlots(x.Parent); ok {
			return fs.param + int32(x.Index)
		}
	case *ir.Global:
		if s, ok := c.a.globalSlot[x]; ok {
			return s
		}
	}
	return -1
}

// bitset is a set of slots.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int32) bool { return i >= 0 && b[i>>6]&(1<<(i&63)) != 0 }

// add inserts i and reports whether it was absent.
func (b bitset) add(i int32) bool {
	if i < 0 || b.has(i) {
		return false
	}
	b[i>>6] |= 1 << (i & 63)
	return true
}

// Per-slot marks of one branch decomposition. Bits 0..GroundDepth record
// the depths at which the value has been queued.
const (
	inValues uint16 = 1 << (GroundDepth + 1 + iota) // in BranchSlice.Values
	inInstrs                                        // in BranchSlice.Instrs
	inICs                                           // a channel call in BranchSlice.ICs
)

// task is one worklist entry: a value to decompose at a given
// interprocedural depth.
type task struct {
	v     ir.Value
	slot  int32
	depth int8
}

// slicer is the scratch state of one branch decomposition. Slicers are
// pooled: marks is sized to the largest module seen and reset through
// touched, so a decomposition allocates only its outputs.
type slicer struct {
	slotter
	s        *BranchSlice
	maxDepth int
	marks    []uint16
	touched  []int32
	work     []task
	// values, instrs and ics collect BranchSlice.Values, Instrs and ICs;
	// the slice gets exact-size copies.
	values []ir.Value
	instrs []*ir.Instr
	ics    []inputchan.CallSite
}

// slicerPool is package-level on purpose: the runtime keeps every
// pool it has seen reachable until the next GC, so a pool inside an
// Analysis would keep that Analysis, its module and alias result alive
// too. Released slicers hold no references into any module.
var slicerPool = sync.Pool{New: func() any { return new(slicer) }}

func newSlicer(a *Analysis, s *BranchSlice) *slicer {
	sl := slicerPool.Get().(*slicer)
	if len(sl.marks) < a.nslots {
		sl.marks = make([]uint16, a.nslots)
	}
	sl.slotter = slotter{a: a}
	sl.s = s
	sl.maxDepth = maxDepthFor(s.Mode)
	return sl
}

// release clears the marks this decomposition set and returns sl to the
// pool without references into the module.
func (sl *slicer) release() {
	for _, i := range sl.touched {
		sl.marks[i] = 0
	}
	sl.touched = sl.touched[:0]
	sl.work = sl.work[:0]
	clear(sl.values)
	sl.values = sl.values[:0]
	clear(sl.instrs)
	sl.instrs = sl.instrs[:0]
	clear(sl.ics)
	sl.ics = sl.ics[:0]
	sl.slotter = slotter{}
	sl.s = nil
	slicerPool.Put(sl)
}

// mark sets bit on slot and reports whether it was clear.
func (sl *slicer) mark(slot int32, bit uint16) bool {
	m := sl.marks[slot]
	if m&bit != 0 {
		return false
	}
	if m == 0 {
		sl.touched = append(sl.touched, slot)
	}
	sl.marks[slot] = m | bit
	return true
}

// push queues (v, depth) unless v is a constant, depth exceeds the mode's
// limit, or the task was queued before.
func (sl *slicer) push(v ir.Value, depth int) {
	if v == nil || depth > sl.maxDepth {
		return
	}
	if _, isConst := v.(*ir.Const); isConst {
		return
	}
	slot := sl.slot(v)
	if slot < 0 || !sl.mark(slot, 1<<depth) {
		return
	}
	sl.work = append(sl.work, task{v, slot, int8(depth)})
}

func (sl *slicer) pop() task {
	n := len(sl.work) - 1
	t := sl.work[n]
	sl.work[n] = task{}
	sl.work = sl.work[:n]
	return t
}

// addInstr adds in to BranchSlice.Instrs once.
func (sl *slicer) addInstr(in *ir.Instr) {
	if slot := sl.slot(in); slot >= 0 && sl.mark(slot, inInstrs) {
		sl.instrs = append(sl.instrs, in)
	}
}

// exact returns a copy of buf with no spare capacity (nil when empty).
func exact[T any](buf []T) []T {
	if len(buf) == 0 {
		return nil
	}
	return append(make([]T, 0, len(buf)), buf...)
}
