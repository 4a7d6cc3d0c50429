package vm

// The decoder lowers a function once per machine into a flat, directly
// executable form: every result-producing instruction gets a dense slot
// in a flat register file (ir.NumberValues), every operand is resolved
// to a {slot, constant, parameter} triple (globals fold to their laid-
// out addresses), GEPs fold their constant offsets, and access widths /
// masks are precomputed. The engine (engine.go) then dispatches over
// these arrays with no IR or map traffic on the hot path.
//
// Replacing the per-frame value map with zero-initialized slots is only
// sound when every use is provably executed after its def. The IR
// verifier does not check dominance, and modules can arrive from the
// artifact store or be built by hand, so the decoder proves
// def-before-use with a dominance analysis. A function it cannot prove
// (or whose operands, slots or successors it cannot resolve) records
// the reason in dfunc.err; its first call ends the run with a
// FaultRuntime naming the instruction.
//
// Every instruction also gets a decode-time cell index into the
// dfunc's counter array (siteCell): the machine's single per-site
// record, from which SitesExecuted, Result.Coverage, Result.SiteCosts
// and the session site profile are all derived (obs.go).

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// operand is a pre-resolved instruction input.
type operand struct {
	kind opdKind
	idx  int32  // slot index (opdSlot) or parameter index (opdParam)
	val  uint64 // literal value (opdConst: constants and global addresses)
}

type opdKind uint8

const (
	opdSlot opdKind = iota
	opdConst
	opdParam
)

// opFall is the sentinel opcode appended to every decoded block; it only
// executes when control falls off the end of a block without reaching a
// terminator, which the reference interpreter reports as a runtime fault.
const opFall = ir.Op(-1)

// dgepTerm is one dynamic index term of a folded GEP.
type dgepTerm struct {
	opd   operand
	scale int64
}

// dgep is a GEP lowered to base + constOff + Σ idx·scale. Address
// arithmetic wraps mod 2^64 and is commutative, so folding every
// constant index into constOff is exact. generic marks the rare shapes
// the fold cannot handle (non-constant struct index, out-of-range field,
// non-pointer base, gep into scalar); those re-run the type walk at
// execution time so faults match the reference interpreter.
type dgep struct {
	constOff uint64
	dyn      []dgepTerm
	generic  bool
}

// dinstr is one decoded instruction.
type dinstr struct {
	op     ir.Op
	dst    int32 // result slot, -1 when none
	cell   int32 // counter cell index (dfunc.cells)
	succ0  int32 // br/condbr target block indices
	succ1  int32
	size   int    // load/store width; sext source width
	umask  uint64 // trunc/zext mask
	aux    int64  // alloca frame offset, -1 when missing from the plan
	pred   ir.Pred
	args   []operand
	gep    *dgep
	callee *ir.Func
	in     *ir.Instr // original instruction (trace, faults, DFI metadata)
}

// dphi is one decoded phi: incoming edges as (pred block index, operand).
type dphi struct {
	dst   int32
	cell  int32
	in    *ir.Instr
	preds []int32
	vals  []operand
}

// dblock is one decoded basic block.
type dblock struct {
	b    *ir.Block
	phis []dphi
	code []dinstr
}

// siteCell is one instruction's dynamic record on one machine:
// executions, fault outcomes, and the modeled cycles attributed to it.
// Executions of hardening instructions are always counted; executions
// of other instructions and all cycles only while an obs session
// attributes cycles (obs.go).
type siteCell struct {
	execs  int64
	faults int64
	cycles float64
}

// dfunc is the decoded form of one function under one machine.
type dfunc struct {
	f         *ir.Func
	plan      *ir.StackPlan
	frameSize int64
	nslots    int
	maxPhis   int // phi scratch slots appended after the value slots
	blocks    []dblock

	// cells is the function's counter array, indexed by decode-time
	// cell index; ins[i] is the instruction behind cells[i]. Hardening
	// instructions take the indices below nsites, so a tick tells a
	// check site with one compare.
	cells  []siteCell
	ins    []*ir.Instr
	nsites int32

	// sent is the part of cells obsFlush has already published to the
	// session site profiler, which receives deltas; allocated by the
	// first flush that has a profiler.
	sent []siteCell

	// index maps instruction to cell; built on first use by the
	// reference interpreter.
	index map[*ir.Instr]int32

	// err is why f could not be decoded and errIn the instruction it
	// names; the first call of f faults with them.
	err   error
	errIn *ir.Instr

	// covBase is the function's coverage-hash base (covHash of its
	// name), mixed into every branch-edge bucket index when a Coverage
	// map is armed.
	covBase uint32
}

// decodedFunc returns f's decoding, decoding it on first use. The
// module is never edited after vm.New, so one decoding per machine
// stays valid for the machine's life.
func (m *Machine) decodedFunc(f *ir.Func) *dfunc {
	d, ok := m.decoded[f]
	if !ok {
		d = m.decode(f)
		m.decoded[f] = d
	}
	return d
}

// cellOf returns in's cell index. Every instruction in f's blocks got
// a cell at decode; ok is false for one reached outside them, through
// a branch to a foreign block.
func (d *dfunc) cellOf(in *ir.Instr) (i int32, ok bool) {
	if d.index == nil {
		d.index = make(map[*ir.Instr]int32, len(d.ins))
		for i, x := range d.ins {
			d.index[x] = int32(i)
		}
	}
	i, ok = d.index[in]
	return i, ok
}

// opWritesResult reports the opcodes whose decoded execution writes dst
// unconditionally; an instruction of one of these with no result slot
// (nameless or void-typed) cannot be decoded.
func opWritesResult(op ir.Op) bool {
	switch op {
	case ir.OpAlloca, ir.OpLoad, ir.OpGEP, ir.OpICmp, ir.OpSelect,
		ir.OpPacSign, ir.OpPacAuth, ir.OpPacStrip, ir.OpCheckLoad:
		return true
	}
	return op.IsBinOp() || op.IsCast()
}

// decoder carries one function's decode-time analyses.
type decoder struct {
	m        *Machine
	d        *dfunc
	num      *ir.Numbering
	g        *cfg.Graph
	blockIdx map[*ir.Block]int32
	// pos gives each instruction's index within its block, for the
	// same-block def-before-use check.
	pos map[*ir.Instr]int
	// nextSite/nextOther hand out cell indices: hardening instructions
	// first, everything else after them.
	nextSite, nextOther int32
}

// decode lowers f for execution under this machine.
func (m *Machine) decode(f *ir.Func) *dfunc {
	d := &dfunc{f: f, plan: f.Plan, covBase: covHash(f.FName)}
	if d.plan == nil {
		d.plan = DefaultPlan(f)
	}
	d.frameSize = frameSize(d.plan)

	num := ir.NumberValues(f)
	d.nslots = num.Count()
	ncells := f.NumInstrs()
	dc := &decoder{
		m: m, d: d, num: num, g: cfg.New(f),
		blockIdx: make(map[*ir.Block]int32, len(f.Blocks)),
		pos:      make(map[*ir.Instr]int, ncells),
	}
	for bi, b := range f.Blocks {
		dc.blockIdx[b] = int32(bi)
		for i, in := range b.Instrs {
			dc.pos[in] = i
			if in.Op.IsHardening() {
				d.nsites++
			}
		}
	}
	d.cells = make([]siteCell, ncells)
	d.ins = make([]*ir.Instr, ncells)
	dc.nextOther = d.nsites

	d.blocks = make([]dblock, len(f.Blocks))
	for bi, b := range f.Blocks {
		db := &d.blocks[bi]
		db.b = b
		phis := b.Phis()
		if len(phis) > d.maxPhis {
			d.maxPhis = len(phis)
		}
		for _, p := range phis {
			dst, ok := num.SlotOf(p)
			if !ok {
				dc.fail(p, "phi has no value slot")
			}
			dp := dphi{dst: dst, cell: dc.cell(p), in: p}
			for _, e := range p.Incoming {
				pi, known := dc.blockIdx[e.Pred]
				if !known {
					pi = -2 // matches no predecessor, including entry (-1)
				}
				dp.preds = append(dp.preds, pi)
				dp.vals = append(dp.vals, dc.phiVal(p, e.Val, b, e.Pred))
			}
			db.phis = append(db.phis, dp)
		}

		db.code = make([]dinstr, 0, len(b.Instrs)-len(phis)+1)
		for ii := len(phis); ii < len(b.Instrs); ii++ {
			db.code = append(db.code, dc.instr(b, ii))
		}
		db.code = append(db.code, dinstr{op: opFall, dst: -1, cell: -1})
	}
	return d
}

// fail records the first reason f cannot be decoded.
func (dc *decoder) fail(in *ir.Instr, format string, args ...any) {
	if dc.d.err == nil {
		dc.d.err, dc.d.errIn = fmt.Errorf(format, args...), in
	}
}

// cell hands in its counter cell index.
func (dc *decoder) cell(in *ir.Instr) int32 {
	next := &dc.nextOther
	if in.Op.IsHardening() {
		next = &dc.nextSite
	}
	i := *next
	*next++
	dc.d.ins[i] = in
	return i
}

// safeUse reports whether a use at (ub, ui) is always executed after
// def: same block and textually earlier, or the def's block strictly
// dominates the use's. Uses in unreachable blocks never execute.
func (dc *decoder) safeUse(def *ir.Instr, ub *ir.Block, ui int) bool {
	db := def.Block
	if db == nil {
		return false
	}
	if !dc.g.Reachable(ub) {
		return true
	}
	if db == ub {
		return dc.pos[def] < ui
	}
	return dc.g.Dominates(db, ub)
}

// val resolves one operand of user, the instruction at (ub, ui).
func (dc *decoder) val(user *ir.Instr, v ir.Value, ub *ir.Block, ui int) operand {
	switch x := v.(type) {
	case *ir.Const:
		return operand{kind: opdConst, val: uint64(x.Val)}
	case *ir.Global:
		return operand{kind: opdConst, val: dc.m.globalAddrs[x]}
	case *ir.Param:
		return operand{kind: opdParam, idx: int32(x.Index)}
	case *ir.Instr:
		slot, ok := dc.num.SlotOf(x)
		if !ok {
			dc.fail(user, "operand %%%s has no value slot", x.Nam)
		} else if !dc.safeUse(x, ub, ui) {
			dc.fail(user, "use of %%%s is not dominated by its definition", x.Nam)
		}
		return operand{kind: opdSlot, idx: slot}
	default:
		dc.fail(user, "unresolvable operand %T", v)
		return operand{}
	}
}

// phiVal resolves a phi edge's value: the def must dominate the
// predecessor block (non-strictly — a def inside the predecessor
// itself runs before its terminator takes the edge).
func (dc *decoder) phiVal(p *ir.Instr, v ir.Value, phiB, predB *ir.Block) operand {
	x, isInstr := v.(*ir.Instr)
	if !isInstr {
		return dc.val(p, v, phiB, 0)
	}
	slot, ok := dc.num.SlotOf(x)
	if !ok || x.Block == nil ||
		(dc.g.Reachable(phiB) && dc.g.Reachable(predB) && !dc.g.Dominates(x.Block, predB)) {
		dc.fail(p, "phi value %%%s does not dominate the edge from %%%s", x.Nam, predB.Name)
	}
	return operand{kind: opdSlot, idx: slot}
}

// instr lowers the instruction at b.Instrs[ii].
func (dc *decoder) instr(b *ir.Block, ii int) dinstr {
	in := b.Instrs[ii]
	di := dinstr{op: in.Op, dst: -1, cell: dc.cell(in), aux: -1, pred: in.Pred, in: in}
	if in.HasResult() {
		if s, ok := dc.num.SlotOf(in); ok {
			di.dst = s
		}
	}
	if di.dst < 0 && (in.HasResult() || opWritesResult(in.Op)) {
		dc.fail(in, "result has no value slot")
	}
	if len(in.Args) > 0 {
		di.args = make([]operand, len(in.Args))
		for i, a := range in.Args {
			di.args[i] = dc.val(in, a, b, ii)
		}
	}

	switch in.Op {
	case ir.OpAlloca:
		if s := dc.d.plan.SlotFor(in); s != nil {
			di.aux = s.Offset
		}
	case ir.OpLoad:
		di.size = int(in.Typ.Size())
	case ir.OpStore:
		di.size = int(in.Args[0].Type().Size())
	case ir.OpTrunc:
		di.umask = widthMask(in.Typ)
	case ir.OpZExt:
		di.umask = widthMask(in.Args[0].Type())
	case ir.OpSExt:
		di.size = int(in.Args[0].Type().Size())
	case ir.OpGEP:
		di.gep = decodeGEP(in, di.args)
	case ir.OpCall:
		di.callee = in.Callee
	case ir.OpBr:
		di.succ0 = dc.succ(in, 0)
	case ir.OpCondBr:
		di.succ0, di.succ1 = dc.succ(in, 0), dc.succ(in, 1)
	}
	return di
}

// succ resolves in's i-th successor to a block index.
func (dc *decoder) succ(in *ir.Instr, i int) int32 {
	if i < len(in.Succs) {
		if bi, ok := dc.blockIdx[in.Succs[i]]; ok {
			return bi
		}
	}
	dc.fail(in, "branch target %d is not a block of the function", i)
	return 0
}

// decodeGEP folds a GEP's type walk at decode time (see dgep).
func decodeGEP(in *ir.Instr, args []operand) *dgep {
	g := &dgep{}
	pt, ok := in.Args[0].Type().(*ir.PtrType)
	if !ok {
		g.generic = true
		return g
	}
	t := pt.Elem
	add := func(o operand, scale int64) {
		if o.kind == opdConst {
			g.constOff += uint64(int64(o.val) * scale)
		} else {
			g.dyn = append(g.dyn, dgepTerm{opd: o, scale: scale})
		}
	}
	// First index scales by the pointee size.
	add(args[1], t.Size())
	for i := 2; i < len(in.Args); i++ {
		switch ct := t.(type) {
		case *ir.ArrayType:
			add(args[i], ct.Elem.Size())
			t = ct.Elem
		case *ir.StructType:
			o := args[i]
			if o.kind != opdConst {
				g.generic = true
				return g
			}
			idx := int64(o.val)
			if idx < 0 || int(idx) >= len(ct.Fields) {
				g.generic = true
				return g
			}
			g.constOff += uint64(ct.Offset(int(idx)))
			t = ct.Fields[idx].Type
		default:
			// gep into scalar: the generic path reproduces the runtime
			// fault with the type reached at that point.
			g.generic = true
			return g
		}
	}
	return g
}
