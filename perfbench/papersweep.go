package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs"
)

// paperSweepSeconds is one full sweep's wall time on the two-core
// reference machine; a run makes one sweep per that many --seconds,
// at least one.
const paperSweepSeconds = 9

// childTimeout bounds one pythia-bench sweep, about eight times its
// usual length.
const childTimeout = time.Minute

// buildBinary builds cmd/<name> from the checkout into the benchmark's
// work directory and returns its path. The go command's cache makes a
// rebuild of unchanged sources a staleness check.
func buildBinary(cfg config, name string) (string, error) {
	out := filepath.Join(cfg.work, "bin", name)
	cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
	cmd.Dir = cfg.root
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stderr, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", name, err, stderr.Bytes())
	}
	return out, nil
}

// setupBinary builds the binary cheapSetupReps times and returns its path
// and the median build time in seconds.
func setupBinary(cfg config, name string) (string, float64, error) {
	var bin string
	var times []float64
	for range cheapSetupReps {
		start := time.Now()
		var err error
		if bin, err = buildBinary(cfg, name); err != nil {
			return "", 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return bin, median(times), nil
}

// childRun is one finished child process.
type childRun struct {
	stdout, stderr []byte
	wall           time.Duration
	usage          rusage
}

// runChild runs bin to completion in dir and reports its output, wall
// time, CPU time and peak RSS. A child that runs past childTimeout is
// killed and reported as an error.
func runChild(dir, bin string, args ...string) (childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := childRun{stdout: stdout.Bytes(), stderr: stderr.Bytes(), wall: time.Since(start)}
	if err != nil {
		return r, fmt.Errorf("%s: %v\n%s", filepath.Base(bin), err, stderr.Bytes())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.usage = fromRusage(ru)
	}
	return r, nil
}

// sweepSummary matches the summary pythia-bench prints to stderr.
var sweepSummary = regexp.MustCompile(`# total [0-9.]+s \(prewarm ([0-9.]+)s\); runs (\d+) executed / (\d+) served cached; analyses (\d+) executed / (\d+) served cached`)

// paperSweep runs the built pythia-bench with default flags — every
// experiment over the 16 profiles — and checks its tables byte for
// byte against results_full.txt. The paper fixes the inputs, so the
// seed is unused.
func paperSweep(cfg config, rep *report) error {
	bin, setup, err := setupBinary(cfg, "pythia-bench")
	if err != nil {
		return err
	}
	rep.e2e["setup_s"] = setup
	golden, args := "results_full.txt", []string(nil)
	if cfg.tiny {
		golden, args = filepath.Join("testdata", "results_quick.txt"), []string{"-quick"}
	}
	want, err := os.ReadFile(filepath.Join(cfg.root, golden))
	if err != nil {
		return err
	}
	tr := newTracer()
	if !cfg.trace {
		tr = nil
	}
	sweep := func(req int, extra ...string) (childRun, error) {
		id := tr.begin(0, "pythia-bench", "bench", req)
		defer tr.end(id)
		r, err := runChild(cfg.root, bin, append(append([]string(nil), args...), extra...)...)
		rep.attempted++
		if err != nil {
			return r, err
		}
		rep.check(bytes.Equal(r.stdout, want), "sweep %d: stdout differs from %s", req, golden)
		return r, nil
	}

	sweeps := max(1, cfg.seconds/paperSweepSeconds)
	var lat []float64
	var wall, cpu time.Duration
	var rss int64
	var last childRun
	for k := 0; k < sweeps; k++ {
		r, err := sweep(k)
		if err != nil {
			return err
		}
		lat = append(lat, ms(r.wall))
		wall += r.wall
		cpu += r.usage.cpu
		rss = max(rss, r.usage.maxRSSK)
		last = r
	}
	rep.e2e["wall_s"] = wall.Seconds()
	rep.e2e["cpu_s"] = cpu.Seconds()
	rep.e2e["peak_rss_mb"] = float64(rss) / 1024
	rep.opLatencies(lat, "sweep")
	rep.e2e["goodput_per_s"] = float64(rep.attempted-rep.failed) / wall.Seconds()
	rep.alias("sweeps", float64(sweeps), "count")
	if !cfg.trace {
		return nil
	}

	if err := sweepCounts(rep, last.stderr); err != nil {
		return err
	}
	// The traced sweep adds pythia-bench's own metrics surface.
	mfile := filepath.Join(cfg.work, "trace", "paper-sweep-metrics.json")
	if err := os.MkdirAll(filepath.Dir(mfile), 0o755); err != nil {
		return err
	}
	r, err := sweep(sweeps, "-metrics", mfile)
	if err != nil {
		return err
	}
	rep.layer["trace.overhead_share"] = (ms(r.wall) - mean(lat)) / mean(lat)
	raw, err := os.ReadFile(mfile)
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("pythia-bench -metrics: %w", err)
	}
	pipelineMetrics(rep, snap)
	rep.layer["bench.pool.queue_wait_ms_p99"] = snap.Histos["bench.pool.queue_wait.ms"].P99
	spans, err := tr.write(filepath.Join(cfg.work, "trace", "paper-sweep.jsonl"))
	rep.check(err == nil, "trace journal: %v", err)
	rep.layer["trace.spans"] = float64(spans)
	return nil
}

// sweepCounts reads the bench layer's prewarm time and cache traffic
// from pythia-bench's stderr summary.
func sweepCounts(rep *report, stderr []byte) error {
	m := sweepSummary.FindSubmatch(stderr)
	if m == nil {
		return fmt.Errorf("pythia-bench stderr has no summary line")
	}
	names := []string{"bench.prewarm_s", "bench.runs_executed", "bench.runs_cached", "bench.analyses_executed", "bench.analyses_cached"}
	for i, name := range names {
		v, err := strconv.ParseFloat(string(m[i+1]), 64)
		if err != nil {
			return err
		}
		rep.layer[name] = v
	}
	return nil
}

// pipelineMetrics copies the pipeline stage sums and cache traffic from
// a binary's metrics registry.
func pipelineMetrics(rep *report, snap obs.Snapshot) {
	rep.layer["pipeline.compile_ms_sum"] = snap.Histos["pipeline.compile.ms"].Sum
	rep.layer["pipeline.harden_ms_sum"] = snap.Histos["pipeline.harden.ms"].Sum
	for _, c := range []string{"pipeline.compile.hits", "pipeline.compile.misses", "pipeline.harden.hits", "pipeline.harden.misses"} {
		rep.layer[c] = float64(snap.Counters[c])
	}
}
