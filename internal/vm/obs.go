package vm

// Observability wiring for the interpreter. The tick path (shared by
// both engines) pays exactly one branch for it — `if m.obs != nil` — so
// with observability off the hot loop is unchanged; with it on, obsTick
// feeds the Config.Trace hook, the fault flight recorder, the
// per-opcode dynamic histogram, and the per-instruction cycle
// attribution into the dfunc counter cells. obsFlush publishes those
// cells' deltas to the session site profiler (`pythia-bench
// -hotsites`); Run derives Result.Coverage and Result.SiteCosts from
// the same cells (vm.go).
//
// Observability is strictly read-only: it inspects the meter and the IR
// but never touches memory, the RNG, or the counters, so arming it
// cannot perturb a single byte of the evaluation output.

import (
	"errors"
	"fmt"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pa"
	"repro/internal/perf"
)

// Typed hardening-fault errors. These replace the anonymous
// fmt.Errorf values the engines used to panic with so forensics can
// recover the faulting address without parsing message strings; their
// Error() renderings are byte-identical to the old messages (the
// engine-differential tests and attack output compare those strings).

type canaryError struct {
	Addr   uint64
	Val    uint64
	forged bool
}

func (e *canaryError) Error() string {
	if e.forged {
		return fmt.Sprintf("canary at %#x replaced with validly-signed forgery", e.Addr)
	}
	return fmt.Sprintf("canary at %#x corrupted (value %#x)", e.Addr, e.Val)
}

type sealError struct {
	Addr   uint64
	Size   int
	object bool
}

func (e *sealError) Error() string {
	if e.object {
		return fmt.Sprintf("sealed object at %#x (%d bytes) corrupted", e.Addr, e.Size)
	}
	return fmt.Sprintf("sealed scalar at %#x corrupted", e.Addr)
}

type dfiError struct {
	ID   int
	Addr uint64
}

func (e *dfiError) Error() string {
	return fmt.Sprintf("dfi: def #%d not permitted at %#x", e.ID, e.Addr)
}

// faultAddress extracts the memory address a fault concerns, when the
// underlying error carries one.
func faultAddress(err error) (uint64, bool) {
	var mf *mem.Fault
	if errors.As(err, &mf) {
		return mf.Addr, true
	}
	var ae *pa.AuthError
	if errors.As(err, &ae) {
		return ae.Ptr, true
	}
	var ce *canaryError
	if errors.As(err, &ce) {
		return ce.Addr, true
	}
	var se *sealError
	if errors.As(err, &se) {
		return se.Addr, true
	}
	var de *dfiError
	if errors.As(err, &de) {
		return de.Addr, true
	}
	return 0, false
}

// obsState is a machine's observability attachment; nil when disabled.
type obsState struct {
	trace  func(f *ir.Func, in *ir.Instr)
	flight *obs.Flight
	reg    *obs.Registry
	sites  *perf.SiteProf

	// hist counts dynamic executions per opcode (flushed to the registry
	// as vm.op.<name> counters).
	hist []int64

	// coverage and costs ask Run for Result.Coverage (the session
	// carries a CoverageAgg) and Result.SiteCosts (an AttribAgg).
	coverage, costs bool

	// profile arms cycle attribution into the counter cells, for the
	// site profiler and for SiteCosts. Attribution is by delta: the
	// meter charge between two consecutive ticks belongs to the earlier
	// instruction (tick runs before the opcode's own work), so each tick
	// closes out the previous cell, which then covers the instruction's
	// own expansion plus the memory traffic it causes.
	profile  bool
	prevD    *dfunc
	prevCell int32
	prevCyc  float64

	// decodedCalls/refCalls count engine routing decisions since the
	// last flush.
	decodedCalls, refCalls int64

	// flushed and flushedHeap remember what obsFlush already reported
	// so a machine that Runs more than once only publishes deltas.
	flushed     perf.Counters
	flushedHeap [2]heap.Stats
}

// newObsState arms observability for a machine being built: a
// Config.Trace hook or an explicit Config.Flight always arms it; an
// active session adds its registry, site profiler, coverage and
// attribution requests (and its FlightDepth when the config did not set
// one). Returns nil when every feature is off.
func newObsState(cfg Config) *obsState {
	s := obs.Current()
	depth := cfg.Flight
	if depth <= 0 && s != nil {
		depth = s.FlightDepth
	}
	st := obsState{trace: cfg.Trace}
	if depth > 0 {
		st.flight = obs.NewFlight(depth)
	}
	if s != nil {
		st.reg, st.sites = s.Metrics, s.Sites
		st.coverage, st.costs = s.Coverage != nil, s.Attrib != nil
	}
	if st.reg != nil {
		st.hist = make([]int64, ir.NumOps())
	}
	st.profile = st.sites != nil || st.costs
	if st.trace == nil && st.flight == nil && st.reg == nil && !st.coverage && !st.profile {
		return nil
	}
	armed := st // allocated only when something is armed
	return &armed
}

// obsTick observes one retired instruction (dtick calls it under a nil
// guard).
func (m *Machine) obsTick(d *dfunc, in *ir.Instr, cell int32) {
	o := m.obs
	if o.trace != nil {
		o.trace(d.f, in)
	}
	if o.flight != nil {
		o.flight.Record(d.f, in)
	}
	if o.hist != nil {
		o.hist[in.Op]++
	}
	if o.profile {
		cyc := m.Meter.C.Cycles
		o.closePrev(cyc)
		if cell >= d.nsites {
			// dtick counts check sites; the profiler wants every site.
			d.cells[cell].execs++
		}
		o.prevD, o.prevCell, o.prevCyc = d, cell, cyc
	}
}

// closePrev attributes the meter charge since the previous tick to the
// previous instruction's cell.
func (o *obsState) closePrev(cyc float64) {
	if o.prevD != nil {
		o.prevD.cells[o.prevCell].cycles += cyc - o.prevCyc
	}
}

// obsForensics builds the flight-recorder report for a fault. in is the
// faulting IR instruction when known; its stable site id (assigned by
// the hardening passes) joins the report so a detection names the exact
// check that tripped.
func (m *Machine) obsForensics(flt *Fault, in *ir.Instr) *obs.FaultReport {
	if m.obs == nil || m.obs.flight == nil {
		return nil
	}
	r := &obs.FaultReport{
		Kind:   flt.Kind.String(),
		Func:   flt.Func,
		Instr:  flt.Instr,
		Window: m.obs.flight.Window(),
	}
	if in != nil {
		r.Site = in.GetMeta("site")
	}
	if addr, ok := faultAddress(flt.Err); ok {
		r.SetAddr(addr, mem.SegmentName(addr))
	}
	return r
}

// obsFlush publishes everything accumulated since the last flush: the
// trailing cycle delta, the site profile deltas, the opcode histogram,
// engine routing, curated counter deltas, and heap arena stats.
func (m *Machine) obsFlush() {
	o := m.obs
	if o == nil {
		return
	}
	c := m.Meter.C
	// Attribute the cycles charged after the last tick (the final
	// instruction's own work) before folding into the shared profile.
	o.closePrev(c.Cycles)
	o.prevD = nil
	if o.sites != nil {
		for _, d := range m.decoded {
			if d.sent == nil {
				d.sent = make([]siteCell, len(d.cells))
			}
			for i, cur := range d.cells {
				if sent := &d.sent[i]; cur.execs != sent.execs || cur.cycles != sent.cycles {
					o.sites.Add(d.f.FName, d.ins[i].String(), cur.execs-sent.execs, cur.cycles-sent.cycles)
					*sent = cur
				}
			}
		}
	}
	if o.reg == nil {
		return
	}
	for op, n := range o.hist {
		if n != 0 {
			o.reg.Add("vm.op."+ir.Op(op).String(), n)
			o.hist[op] = 0
		}
	}
	p := &o.flushed
	o.reg.Add("vm.instrs", c.Instrs-p.Instrs)
	o.reg.Add("vm.pa.ops", c.PAInstrs-p.PAInstrs)
	o.reg.Add("vm.canary.ops", c.CanaryOps-p.CanaryOps)
	o.reg.Add("vm.dfi.ops", c.DFIOps-p.DFIOps)
	o.reg.Add("vm.loads", c.Loads-p.Loads)
	o.reg.Add("vm.stores", c.Stores-p.Stores)
	o.reg.Gauge("vm.cycles").Add(c.Cycles - p.Cycles)
	o.reg.Add("vm.engine.decoded_calls", o.decodedCalls)
	o.reg.Add("vm.engine.reference_calls", o.refCalls)
	o.flushed, o.decodedCalls, o.refCalls = *c, 0, 0

	sections := [2]struct {
		name string
		st   heap.Stats
	}{
		{"shared", m.Heap.Shared.Stats()},
		{"isolated", m.Heap.Isolated.Stats()},
	}
	for i, sec := range sections {
		prev := o.flushedHeap[i]
		o.reg.Add("heap."+sec.name+".allocs", int64(sec.st.Allocs-prev.Allocs))
		o.reg.Add("heap."+sec.name+".frees", int64(sec.st.Frees-prev.Frees))
		o.reg.Gauge("heap." + sec.name + ".bytes_in_use").Set(float64(sec.st.BytesInUse))
		o.reg.Gauge("heap." + sec.name + ".peak_in_use").Max(float64(sec.st.PeakInUse))
		o.flushedHeap[i] = sec.st
	}
}
