package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workers is the benchmark's concurrency: the machines it is sized for
// have two cores, and every workload keeps its load in one process.
const workers = 2

// mib is the byte count of the MB unit metrics use.
const mib = 1 << 20

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// parallel runs f(0..n-1) on the benchmark's workers, handing out
// indexes in order, and returns once every call has finished.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// rusage is a snapshot of this process's CPU time and peak RSS.
type rusage struct {
	cpu     time.Duration
	maxRSSK int64
}

func selfUsage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	return fromRusage(&ru)
}

func fromRusage(ru *syscall.Rusage) rusage {
	return rusage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSK: ru.Maxrss, // KiB on Linux
	}
}

// goStats reads the Go runtime's cumulative GC CPU and allocation
// counters for the in-process workloads.
type goStats struct {
	gcCPU, totalCPU, allocBytes float64
}

func readGoStats() goStats {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return goStats{gcCPU: val(samples[0]), totalCPU: val(samples[1]), allocBytes: val(samples[2])}
}

// allocDelta measures the bytes and objects f allocates. It reads the
// whole process's counters, so callers run it with nothing else
// allocating.
func allocDelta(f func()) (bytes, mallocs uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

// report collects one run's checks and metrics.
type report struct {
	attempted, failed int
	checks            []string // failed check descriptions
	passed            int      // checks that passed
	e2e               map[string]float64
	layer             map[string]float64
	aliases           []string // human-readable lines naming per-workload metrics
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records one correctness check; a failure also counts as a
// failed operation, so it shows in error_share.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.passed++
		return
	}
	r.failed++
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// alias adds a human-readable line for a value under a workload-specific
// name; aliases are printed, not part of the result object.
func (r *report) alias(name string, v float64, unit string) {
	r.aliases = append(r.aliases, fmt.Sprintf("%-22s %.6g %s", name, v, unit))
}

// opLatencies records the median op latency and prints the p90 under
// the workload's own name. The tail is not gated: on the two-core
// reference machine its run-to-run spread on pythiad-mix (0.26-0.58 of
// its median, the same seed included) exceeds any bound a regression
// gate may use, because queueing amplifies the host's own speed swings.
func (r *report) opLatencies(lat []float64, name string) {
	r.e2e["op_ms_p50"] = median(lat)
	r.alias(name+"_ms_p50", median(lat), "ms")
	r.alias(name+"_ms_p90", quantile(lat, 0.9), "ms")
}
