package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans are kept in memory and written once, when the run ends, as
// obs journal events (JSONL), so `pythia-journal -validate` checks them
// and no second trace format exists. Parents are passed explicitly, so
// spans of one operation nest correctly whichever goroutine runs them;
// every begin carries the operation's request id.
//
// A nil *tracer is the untraced path: every method is a no-op, so
// traced and untraced runs execute the same benchmark code.
type tracer struct {
	mu     sync.Mutex
	start  time.Time
	nextID int64
	events []obs.JournalEvent
	open   map[int64]*spanRec
	done   []spanRec
}

type spanRec struct {
	id, parent int64
	name       string
	begin      int64 // ns since start
	dur        time.Duration
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), open: make(map[int64]*spanRec)}
}

// begin opens a span under parent (0 = root) for request req and
// returns its id.
func (t *tracer) begin(parent int64, name, cat string, req int) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	now := time.Since(t.start)
	t.open[id] = &spanRec{id: id, parent: parent, name: name, begin: int64(now)}
	t.events = append(t.events, obs.JournalEvent{
		Ev: "begin", ID: id, Parent: parent, Name: name, Cat: cat, TS: now.Microseconds(),
		Attrs: map[string]string{"req": strconv.Itoa(req)},
	})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.start)
	sp := t.open[id]
	delete(t.open, id)
	sp.dur = now - time.Duration(sp.begin)
	t.done = append(t.done, *sp)
	t.events = append(t.events, obs.JournalEvent{
		Ev: "end", ID: id, Parent: sp.parent, Name: sp.name, TS: now.Microseconds(),
		Dur: now.Microseconds() - time.Duration(sp.begin).Microseconds(),
	})
}

// span runs f inside a span and returns f's error.
func (t *tracer) span(parent int64, name, cat string, req int, f func() error) error {
	id := t.begin(parent, name, cat, req)
	err := f()
	t.end(id)
	return err
}

// layerTimes aggregates completed spans per span name: self time
// (duration minus the part covered by direct children) and total time.
type layerTimes struct {
	self  map[string]time.Duration
	total map[string]time.Duration
	// rootTotal and rootCovered sum, over the spans named root, their
	// durations and the part of them their direct children cover.
	rootTotal, rootCovered time.Duration
}

func (t *tracer) layers(root string) layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}}
	childDur := make(map[int64]time.Duration)
	for _, sp := range t.done {
		if sp.parent != 0 {
			childDur[sp.parent] += sp.dur
		}
	}
	for _, sp := range t.done {
		lt.self[sp.name] += sp.dur - childDur[sp.id]
		lt.total[sp.name] += sp.dur
		if sp.name == root {
			lt.rootTotal += sp.dur
			lt.rootCovered += childDur[sp.id]
		}
	}
	return lt
}

// coverage returns the share of the root spans' time their children
// cover.
func (lt layerTimes) coverage() float64 {
	if lt.rootTotal == 0 {
		return 0
	}
	return float64(lt.rootCovered) / float64(lt.rootTotal)
}

// selfMS returns the mean self time of the named span per n operations.
func (lt layerTimes) selfMS(name string, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(lt.self[name]) / float64(n)
}

// write stores the journal at path and checks it with the journal
// validator pythia-journal runs. It returns the number of spans.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	for _, ev := range t.events {
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return 0, err
		}
		w.Write(append(b, '\n')) // a write error sticks and Flush reports it
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	r, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	st, err := obs.ValidateJournal(r)
	if err != nil {
		return 0, fmt.Errorf("journal %s: %w", path, err)
	}
	if st.Open != 0 {
		return 0, fmt.Errorf("journal %s: %d spans left open", path, st.Open)
	}
	return st.Spans, nil
}
