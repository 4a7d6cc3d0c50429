package obs

// Chrome trace_event records, loadable in chrome://tracing / Perfetto.
// The timeline is a derived view of the journal (Journal.WriteTrace):
// complete ("X") events for spans and instant ("i") events for points,
// each carrying a lane derived from span parentage so concurrent
// prewarm workers render as separate lanes and nested spans (compile
// inside run inside experiment) stack correctly within a lane.

import "runtime"

// TraceEvent is one trace_event record. Field names follow the Chrome
// trace-event format specification.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds since trace start
	Dur   float64        `json:"dur,omitempty"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level JSON object Chrome's viewer expects.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// goid extracts the current goroutine's id from the runtime stack
// header ("goroutine N [..."). It is only called on span/event
// boundaries — compiles, runs, experiments — never per instruction.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return 0
	}
	var id int64
	for _, c := range s[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
