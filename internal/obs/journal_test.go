package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestJournalNesting: spans opened with the `defer Begin()()` discipline
// nest causally — each child's parent is the innermost open span, ids
// are assigned in begin order, and ending a span restores its parent as
// current.
func TestJournalNesting(t *testing.T) {
	j := NewJournal()
	endA := j.Begin("a", "t")
	if got := j.Current(); got != 1 {
		t.Fatalf("Current after Begin(a) = %d, want 1", got)
	}
	endB := j.Begin("b", "t")
	j.Point("p", "t", map[string]string{"k": "v"})
	endB()
	if got := j.Current(); got != 1 {
		t.Fatalf("Current after b ended = %d, want 1 (a restored)", got)
	}
	endC := j.Begin("c", "t")
	endC()
	endA()
	if got := j.Current(); got != 0 {
		t.Fatalf("Current after all ended = %d, want 0", got)
	}

	spans := j.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	wantParent := map[string]int64{"a": 0, "b": 1, "c": 1}
	for _, sp := range spans {
		if sp.Parent != wantParent[sp.Name] {
			t.Errorf("span %q parent = %d, want %d", sp.Name, sp.Parent, wantParent[sp.Name])
		}
		if sp.Open {
			t.Errorf("span %q still open", sp.Name)
		}
		if sp.Parent >= sp.ID {
			t.Errorf("span %q: parent %d not before id %d", sp.Name, sp.Parent, sp.ID)
		}
	}
	for _, ev := range j.Events() {
		if ev.Ev == "point" {
			if ev.Parent != 2 || ev.Attrs["k"] != "v" {
				t.Errorf("point event wrong: %+v", ev)
			}
		}
	}
}

// TestJournalAdopt: a goroutine that adopts a span parents its spans
// there, and the release restores the goroutine's previous state.
func TestJournalAdopt(t *testing.T) {
	j := NewJournal()
	end := j.Begin("dispatch", "t")
	parent := j.Current()

	done := make(chan struct{})
	go func() {
		defer close(done)
		release := j.Adopt(parent)
		j.Begin("work", "t")()
		release()
		if got := j.Current(); got != 0 {
			t.Errorf("worker Current after release = %d, want 0", got)
		}
	}()
	<-done
	end()

	for _, sp := range j.Spans() {
		if sp.Name == "work" && sp.Parent != parent {
			t.Errorf("adopted span parent = %d, want %d", sp.Parent, parent)
		}
	}
}

// TestJournalStreamAndValidate: OpenJournal streams JSONL that
// ValidateJournal accepts, with stats matching the recorded events.
func TestJournalStreamAndValidate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	end := j.Begin("root", "t")
	j.Point("hit", "cache", map[string]string{"key": "abc"})
	j.Begin("child", "t")()
	end()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(raw), "\n")
	if lines != j.Len() {
		t.Fatalf("file has %d lines, journal has %d events", lines, j.Len())
	}
	st, err := ValidateJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ValidateJournal: %v", err)
	}
	if st.Events != 5 || st.Spans != 2 || st.Points != 1 || st.Open != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestValidateJournalRejects: each malformed stream fails with a
// line-numbered error.
func TestValidateJournalRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"ev":"begin","id":1,"name":"a","ts_us":0,"bogus":1}`,
		"unknown ev":    `{"ev":"mid","id":1,"name":"a","ts_us":0}`,
		"empty name":    `{"ev":"begin","id":1,"name":"","ts_us":0}`,
		"zero id":       `{"ev":"begin","id":0,"name":"a","ts_us":0}`,
		"orphan end":    `{"ev":"end","id":1,"name":"a","ts_us":0}`,
		"parent not before": `{"ev":"begin","id":1,"name":"a","ts_us":0}` + "\n" +
			`{"ev":"begin","id":2,"parent":2,"name":"b","ts_us":0}`,
		"parent never began": `{"ev":"begin","id":2,"parent":1,"name":"b","ts_us":0}`,
		"ts regression": `{"ev":"begin","id":1,"name":"a","ts_us":5}` + "\n" +
			`{"ev":"point","id":2,"name":"p","ts_us":4}`,
		"id reused": `{"ev":"begin","id":1,"name":"a","ts_us":0}` + "\n" +
			`{"ev":"point","id":1,"name":"p","ts_us":0}`,
		"duplicate end": `{"ev":"begin","id":1,"name":"a","ts_us":0}` + "\n" +
			`{"ev":"end","id":1,"name":"a","ts_us":1,"dur_us":1}` + "\n" +
			`{"ev":"end","id":1,"name":"a","ts_us":2,"dur_us":2}`,
		"begin with duration": `{"ev":"begin","id":1,"name":"a","ts_us":0,"dur_us":3}`,
	}
	for name, stream := range cases {
		if _, err := ValidateJournal(strings.NewReader(stream)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
	// A truncated stream (open span) is legal.
	st, err := ValidateJournal(strings.NewReader(`{"ev":"begin","id":1,"name":"a","ts_us":0}`))
	if err != nil {
		t.Fatalf("open span rejected: %v", err)
	}
	if st.Open != 1 {
		t.Errorf("open = %d, want 1", st.Open)
	}
}

// TestJournalDerivedTrace: the Chrome trace is derived from parentage —
// a child lands on its parent's lane when it nests there, concurrent
// siblings spill to distinct lanes, and the document satisfies the
// loader invariants the CLI tests pin (PID/TID nonzero, ms unit).
func TestJournalDerivedTrace(t *testing.T) {
	j := NewJournal()
	end := j.Begin("root", "t")
	j.Begin("seq1", "t")()
	j.Point("ping", "t", nil)
	j.Begin("seq2", "t")()
	end()

	var buf bytes.Buffer
	if err := j.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int64          `json:"pid"`
			TID   int64          `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("derived trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	lanes := make(map[string]int64)
	for _, e := range doc.TraceEvents {
		// Spans are complete events; points are thread-scoped instants.
		shape := e.Phase == "X"
		if e.Name == "ping" {
			shape = e.Phase == "i" && e.Scope == "t"
		}
		if e.PID != 1 || e.TID < 1 || e.Name == "" || !shape {
			t.Errorf("malformed event: %+v", e)
		}
		lanes[e.Name] = e.TID
	}
	// Sequential children share the root's lane: they nest inside it and
	// are disjoint from each other; the point sits on its parent's lane.
	if lanes["seq1"] != lanes["root"] || lanes["seq2"] != lanes["root"] || lanes["ping"] != lanes["root"] {
		t.Errorf("sequential children not on parent lane: %v", lanes)
	}
}

// TestJournalConcurrentAdoptLanes: two workers adopting the same parent
// concurrently produce overlapping sibling spans; the derived view must
// give them different lanes while both remain causally parented.
func TestJournalConcurrentAdoptLanes(t *testing.T) {
	j := NewJournal()
	end := j.Begin("pool", "t")
	parent := j.Current()
	var wg sync.WaitGroup
	gate := make(chan struct{})
	began := make(chan struct{}, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer j.Adopt(parent)()
			e := j.Begin("task", "t")
			began <- struct{}{}
			<-gate // both tasks open before either closes: forced overlap
			e()
		}()
	}
	<-began
	<-began
	close(gate)
	wg.Wait()
	end()

	spans := j.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, sp := range spans[1:] {
		if sp.Parent != parent {
			t.Errorf("task parent = %d, want %d", sp.Parent, parent)
		}
	}
}
