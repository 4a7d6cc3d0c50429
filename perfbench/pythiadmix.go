package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/service"
)

// The pythiad-mix load. The generator is open-loop: submissions are due
// on a fixed schedule whatever the daemon does, and each is timed from
// its due time, so a stall delays every later submission. The
// closed-loop capacity for this mix over two connections was 81/s on
// the two-core reference machine when the benchmark was defined. At
// half of it (40/s) the median hit latency moved by a third from run to
// run, because the daemon, its GC and the generator then contend for
// the two cores; the offered rate is 30/s, about 37 % of capacity.
const (
	mixRate        = 30.0 // submissions per second
	mixLimitMS     = 1000 // goodput counts correct responses within this latency
	mixHitShare    = 0.85 // attack-corpus resubmissions (memo hits)
	mixFreshShare  = 0.10 // fresh generated programs (misses)
	mixBlock       = 20   // schedule slots per block of exact shares
	mixConnections = workers
)

// requestTimeout bounds every request to the daemon, so a hung daemon
// fails the run instead of stalling it.
const requestTimeout = time.Minute

// controlClient carries the warm-up submissions and the surface scrapes.
var controlClient = &http.Client{Timeout: requestTimeout}

// mixReq is one scheduled submission and its oracle.
type mixReq struct {
	kind string // hit, fresh or malformed
	body []byte
	want string // verdict as the attacks table spells it, or "400"
}

// mixResp is what the client observed for one submission.
type mixResp struct {
	status     int
	verdict    string
	cacheHit   bool
	queueWait  float64
	latencyMS  float64 // from due time to response
	lateMS     float64 // send time minus due time
	err        error
	statusText string
}

// pythiadMix runs the built pythiad as deployed — -workers 2 over a
// fresh -cache-dir — and drives it with the seeded open-loop mix.
func pythiadMix(cfg config, rep *report) error {
	attacks, err := readTable(cfg.root, "results_full.txt", "attacks")
	if err != nil {
		return err
	}
	warm, reqs, err := mixSchedule(cfg, attacks)
	if err != nil {
		return err
	}

	// Set-up is what a deployment pays: build the binary (a staleness
	// check once the go cache is warm), start it, warm the corpus.
	var d *daemon
	var bin string
	var setups []float64
	for range cheapSetupReps {
		if d != nil {
			d.stop(rep)
		}
		start := time.Now()
		if bin, err = buildBinary(cfg, "pythiad"); err != nil {
			return err
		}
		if d, err = startDaemon(cfg, bin); err != nil {
			return err
		}
		d.warmUp(rep, warm)
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)

	resps, wall := driveMix(d.addr, reqs, nil)
	usage := d.stop(rep)
	good := checkMix(rep, reqs, resps)

	lat := make([]float64, len(resps))
	for i, r := range resps {
		lat[i] = r.latencyMS
	}
	rep.e2e["wall_s"] = wall.Seconds()
	rep.e2e["cpu_s"] = usage.cpu.Seconds()
	rep.e2e["peak_rss_mb"] = float64(usage.maxRSSK) / 1024
	rep.opLatencies(lat, "submit")
	rep.e2e["goodput_per_s"] = float64(good) / wall.Seconds()
	rep.alias("submit_ms_p99", quantile(lat, 0.99), "ms")
	rep.alias("goodput_rps", rep.e2e["goodput_per_s"], "1/s")
	rep.alias("submissions", float64(len(reqs)), "count")
	rep.alias("offered_rps", mixRate, "1/s")
	if !cfg.trace {
		return nil
	}

	// Traced run: a second daemon with its run journal on, the same
	// schedule, client spans per submission, then the daemon's own
	// surfaces.
	journal := filepath.Join(cfg.work, "trace", "pythiad-journal.jsonl")
	if err := os.MkdirAll(filepath.Dir(journal), 0o755); err != nil {
		return err
	}
	if d, err = startDaemon(cfg, bin, "-journal", journal); err != nil {
		return err
	}
	d.warmUp(rep, warm)
	tr := newTracer()
	tresps, _ := driveMix(d.addr, reqs, tr)
	scrapeErr := scrapeDaemon(rep, d.addr)
	d.stop(rep)
	rep.check(scrapeErr == nil, "scrape pythiad: %v", scrapeErr)
	checkMix(rep, reqs, tresps)
	var tlat, waits, late []float64
	hits, ok200, rejected := 0, 0, 0
	for _, r := range tresps {
		tlat = append(tlat, r.latencyMS)
		late = append(late, r.lateMS)
		switch r.status {
		case http.StatusOK:
			ok200++
			waits = append(waits, r.queueWait)
			if r.cacheHit {
				hits++
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++
		}
	}
	rep.layer["trace.overhead_share"] = (mean(tlat) - mean(lat)) / mean(lat)
	rep.layer["service.queue_wait_ms_p50"] = median(waits)
	rep.layer["service.queue_wait_ms_p99"] = quantile(waits, 0.99)
	rep.layer["service.cache_hit_share"] = float64(hits) / float64(max(ok200, 1))
	rep.layer["service.rejected_share"] = float64(rejected) / float64(len(tresps))
	rep.layer["client.sched_late_ms_p99"] = quantile(late, 0.99)
	spans, err := tr.write(filepath.Join(cfg.work, "trace", fmt.Sprintf("pythiad-mix-seed%d.jsonl", cfg.seed)))
	rep.check(err == nil, "trace journal: %v", err)
	rep.layer["trace.spans"] = float64(spans)
	f, err := os.Open(journal)
	if err != nil {
		return err
	}
	_, err = obs.ValidateJournal(f)
	f.Close()
	rep.check(err == nil, "pythiad journal: %v", err)
	return nil
}

// mixSchedule builds the warm-up set (every corpus victim under every
// scheme, benign input) and the seeded schedule: mixHitShare corpus
// resubmissions with benign or malicious input, mixFreshShare fresh
// generated programs under one scheme each, the rest malformed sources.
func mixSchedule(cfg config, attacks map[string]map[string]string) (warm, reqs []mixReq, err error) {
	body := func(src, scheme, stdin string) []byte {
		// A SubmitRequest holds only strings, ints and bools, which
		// always marshal.
		b, _ := json.Marshal(service.SubmitRequest{Source: src, Scheme: scheme, Stdin: stdin, Tenant: "perfbench"})
		return b
	}
	corpus := attack.Corpus()
	for _, c := range corpus {
		if attacks[c.Name] == nil {
			return nil, nil, fmt.Errorf("attacks table has no row %q", c.Name)
		}
		for _, s := range schemeNames {
			warm = append(warm, mixReq{kind: "hit", body: body(c.Source, s, c.Benign), want: "clean"})
		}
	}
	// The schedule is whole blocks of mixBlock slots holding the mix's
	// exact shares. Fresh programs take evenly spaced slots, so the
	// queueing they cause does not depend on the seed; the malformed
	// sources take seeded slots among the rest.
	blocks := max(1, int(math.Round(mixRate*float64(cfg.seconds)/mixBlock)))
	if cfg.tiny {
		blocks = 1
	}
	n := blocks * mixBlock
	nFresh := int(math.Round(mixFreshShare * mixBlock))
	nBad := mixBlock - nFresh - int(math.Round(mixHitShare*mixBlock))
	rng := rand.New(rand.NewSource(cfg.seed))
	kinds := make([]string, 0, n)
	for b := 0; b < blocks; b++ {
		block := make([]string, mixBlock)
		for i := range block {
			block[i] = "hit"
		}
		for f := 0; f < nFresh; f++ {
			block[f*mixBlock/nFresh] = "fresh"
		}
		for placed := 0; placed < nBad; {
			if i := rng.Intn(mixBlock); block[i] == "hit" {
				block[i] = "malformed"
				placed++
			}
		}
		kinds = append(kinds, block...)
	}
	// Fresh programs come from their own stream of the seed's draw.
	freshProgs := drawPrograms(cfg.seed+1_000_000_007, blocks*nFresh)
	fresh := 0
	for i, kind := range kinds {
		scheme := schemeNames[rng.Intn(len(schemeNames))]
		if kind == "fresh" {
			// Fresh programs cycle through the schemes, whose build and
			// run costs differ widely.
			scheme = schemeNames[fresh%len(schemeNames)]
		}
		r := mixReq{kind: kind}
		switch kind {
		case "hit":
			c := corpus[rng.Intn(len(corpus))]
			if rng.Intn(2) == 0 {
				r.body, r.want = body(c.Source, scheme, c.Benign), "clean"
			} else {
				r.body, r.want = body(c.Source, scheme, c.Malicious), attacks[c.Name][scheme]
			}
		case "fresh":
			p := freshProgs[fresh]
			fresh++
			r.body, r.want = body(p.Source, scheme, p.Stdin), "clean"
		default:
			r.body, r.want = body(malformed(i, rng.Intn(len(malformedSources))), scheme, ""), "400"
		}
		reqs = append(reqs, r)
	}
	return warm, reqs, nil
}

// malformedSources are sources every scheme must reject with 400: a
// syntax error, a call with the wrong arity, and a value return in a
// void function. %[1]d makes each submission distinct, so none is a
// memo hit.
//
// Two hostile programs are deliberately absent: a by-value recursive
// struct overflows the Go stack and char a[1000000000000] exhausts host
// memory. Each ends the daemon today, so every run would fail instead
// of measuring; they join this list once the front end rejects them
// with a typed error.
var malformedSources = []string{
	"int main() { long x%[1]d = ; return 0; }\n",
	"long f%[1]d(long a, long b) { return a + b; }\nint main() { return f%[1]d(1); }\n",
	"void g%[1]d() { return %[1]d; }\nint main() { g%[1]d(); return 0; }\n",
}

func malformed(i, k int) string { return fmt.Sprintf(malformedSources[k], i) }

// driveMix plays reqs open-loop against addr over mixConnections
// connections: submission k is due at start + k/mixRate. It returns
// each submission's response and the time from the first due time to
// the last response.
func driveMix(addr string, reqs []mixReq, tr *tracer) ([]mixResp, time.Duration) {
	resps := make([]mixResp, len(reqs))
	due := make([]time.Time, len(reqs))
	ch := make(chan int, len(reqs)) // every submission may be queued at once
	start := time.Now().Add(50 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < mixConnections; c++ {
		client := &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   requestTimeout,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for k := range ch {
				id := tr.begin(0, "client.submit."+reqs[k].kind, "client", k)
				resps[k] = submit(client, addr, reqs[k].body, due[k])
				tr.end(id)
			}
		}()
	}
	for k := range reqs {
		due[k] = start.Add(time.Duration(float64(k) / mixRate * float64(time.Second)))
		time.Sleep(time.Until(due[k]))
		ch <- k
	}
	close(ch)
	wg.Wait()
	return resps, time.Since(start)
}

// submit POSTs one submission and times it from due.
func submit(client *http.Client, addr string, body []byte, due time.Time) mixResp {
	r := mixResp{lateMS: ms(time.Since(due))}
	resp, err := client.Post("http://"+addr+"/api/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		r.latencyMS = ms(time.Since(due))
		return r
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latencyMS = ms(time.Since(due))
	r.status, r.err = resp.StatusCode, err
	if r.err != nil || resp.StatusCode != http.StatusOK {
		r.statusText = strings.TrimSpace(string(raw))
		return r
	}
	var sr service.SubmitResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		r.err = err
		return r
	}
	r.verdict, r.cacheHit, r.queueWait = sr.Verdict, sr.CacheHit, sr.QueueWaitMS
	if sr.Verdict == "detected" && sr.Fault != nil {
		r.verdict = "detected(" + sr.Fault.Kind + ")"
	}
	return r
}

// checkMix applies pythiad-mix's oracles and returns the number of
// correct responses within mixLimitMS.
func checkMix(rep *report, reqs []mixReq, resps []mixResp) int {
	good := 0
	for k, r := range resps {
		rep.attempted++
		want := reqs[k].want
		var ok bool
		if want == "400" {
			ok = r.err == nil && r.status == http.StatusBadRequest
		} else {
			ok = r.err == nil && r.status == http.StatusOK && r.verdict == want
		}
		rep.check(ok, "submission %d (%s): status %d verdict %q err %v, want %s %s",
			k, reqs[k].kind, r.status, r.verdict, r.err, want, r.statusText)
		if ok && r.latencyMS <= mixLimitMS {
			good++
		}
	}
	return good
}

// scrapeDaemon reads pythiad's /debug/vars (Go memstats and the metrics
// registry) and /api/v1/stats (artifact store).
func scrapeDaemon(rep *report, addr string) error {
	var vars struct {
		Memstats runtime.MemStats `json:"memstats"`
		Pythia   obs.Snapshot     `json:"pythia"`
	}
	if err := getJSON(addr, "/debug/vars", &vars); err != nil {
		return err
	}
	var stats service.StatsResponse
	if err := getJSON(addr, "/api/v1/stats", &stats); err != nil {
		return err
	}
	rep.layer["daemon.heap_inuse_mb"] = float64(vars.Memstats.HeapInuse) / mib
	rep.layer["go.gc_cpu_share"] = vars.Memstats.GCCPUFraction
	rep.layer["go.alloc_mb"] = float64(vars.Memstats.TotalAlloc) / mib
	h := vars.Pythia.Histos["service.run.ms"]
	rep.layer["service.run_ms_p50"], rep.layer["service.run_ms_p99"] = h.P50, h.P99
	pipelineMetrics(rep, vars.Pythia)
	if stats.Artifacts == nil {
		return errors.New("/api/v1/stats: no artifact store")
	}
	rep.layer["artifact.entries"] = float64(stats.Artifacts.Entries)
	rep.layer["artifact.mb"] = float64(stats.Artifacts.Bytes) / mib
	return nil
}

func getJSON(addr, path string, v any) error {
	resp, err := controlClient.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// daemon is one running pythiad.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	cacheDir string
	stderr   bytes.Buffer // guarded by the reader until readDone closes
	readDone chan struct{}
}

// startDaemon starts pythiad on an ephemeral loopback port over a fresh
// cache directory and waits for its listen line.
func startDaemon(cfg config, bin string, extra ...string) (*daemon, error) {
	tmp := filepath.Join(cfg.work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cacheDir, err := os.MkdirTemp(tmp, "pythiad-cache-")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers), "-cache-dir", cacheDir}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), cacheDir: cacheDir, readDone: make(chan struct{})}
	d.cmd.Dir = cfg.root
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(cacheDir)
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.readDone)
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "pythiad: listening on "); ok && !sent {
				addrc <- strings.Fields(rest)[0]
				sent = true
			}
			d.stderr.WriteString(line + "\n")
		}
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.readDone:
	case <-time.After(30 * time.Second):
	}
	d.cmd.Process.Kill()
	<-d.readDone
	d.cmd.Wait()
	os.RemoveAll(cacheDir)
	return nil, fmt.Errorf("pythiad did not report its address:\n%s", d.stderr.String())
}

// warmUp submits every warm-up request, so the corpus is a memo hit
// from then on, and checks each verdict.
func (d *daemon) warmUp(rep *report, warm []mixReq) {
	for _, w := range warm {
		r := submit(controlClient, d.addr, w.body, time.Now())
		rep.check(r.err == nil && r.verdict == w.want, "warm-up submission: got %q %v, want %q", r.verdict, r.err, w.want)
	}
}

// stop sends SIGTERM, waits for the drain, checks the exit status is 0
// and returns the daemon's lifetime CPU time and peak RSS.
func (d *daemon) stop(rep *report) rusage {
	defer os.RemoveAll(d.cacheDir)
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.readDone:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.readDone
	}
	err := d.cmd.Wait()
	rep.check(err == nil, "pythiad exit on SIGTERM: %v\n%s", err, d.stderr.String())
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return fromRusage(ru)
	}
	return rusage{}
}
