package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one file or request share
// a trace id; parent is the id of the enclosing span, 0 for a root.
type span struct {
	name   string
	trace  string
	parent int
	start  time.Duration // since the tracer started
	end    time.Duration
}

// tracer keeps the spans of a traced run in memory until writeJSON. A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, trace string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, trace: trace, parent: parent, start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as job
// timestamps reported by the daemon.
func (t *tracer) add(name, trace string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, trace: trace, parent: parent, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.name] += self[i]
	}
	return out
}

type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// writeJSON writes the spans as Chrome trace-event JSON. Concurrent root
// spans go to separate lanes (tids), first fit by start time, and each
// child shares its root's lane so nesting renders as a stack.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].start < t.spans[order[b]].start })
	lane := make([]int, len(t.spans))
	var laneEnd []time.Duration
	for _, i := range order {
		s := t.spans[i]
		if s.parent > 0 {
			lane[i] = lane[s.parent-1]
			continue
		}
		l := 0
		for l < len(laneEnd) && laneEnd[l] > s.start {
			l++
		}
		if l == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[l] = s.end
		lane[i] = l
	}
	events := make([]traceEvent, 0, len(t.spans))
	for _, i := range order {
		s := t.spans[i]
		args := map[string]string{"trace_id": s.trace}
		if s.parent > 0 {
			args["parent"] = t.spans[s.parent-1].name
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			PID: 1, TID: lane[i] + 1, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
