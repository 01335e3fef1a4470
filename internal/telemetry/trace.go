package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one Chrome trace-event ("Trace Event Format", complete-event
// phase "X"): a named interval on a (pid, tid) lane with microsecond
// timestamps relative to the tracer's start. Files written by
// Tracer.WriteTo load directly into chrome://tracing and Perfetto.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	S    string         `json:"s,omitempty"` // instant-event scope ("t" = thread)
	TS   int64          `json:"ts"`          // microseconds since tracer start
	Dur  int64          `json:"dur"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceDoc is the document Tracer.WriteJSON writes and
// GET /v1/jobs/{id}/trace serves: the Chrome trace-event list, plus the
// count of events the tracer's cap discarded when there were any.
type TraceDoc struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit,omitempty"`
	// DroppedEvents counts events discarded by the tracer's event cap.
	DroppedEvents int64 `json:"droppedEvents,omitempty"`
}

// Tracer collects spans into an in-memory event list. It is safe for
// concurrent use; span hierarchy is expressed through lanes (trace-event
// tids): child spans inherit their parent's lane, so nested intervals on
// one lane render as a flame graph, and independent units of work (one
// per verified file) each get a fresh lane.
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	dropped int64
	limit   int   // max retained events; 0 = unbounded
	procs   int64 // extra pids handed out by DrawProfile (local events use pid 1)
	base    time.Time
	now     func() time.Time
	lanes   atomic.Int64
}

// NewTracer returns a tracer with its epoch set to now.
func NewTracer() *Tracer {
	return &Tracer{base: time.Now(), now: time.Now}
}

// NextLane allocates a fresh lane (trace tid). Lane 0 is the root lane.
func (t *Tracer) NextLane() int64 {
	if t == nil {
		return 0
	}
	return t.lanes.Add(1)
}

// SetLimit caps the number of retained events; once reached, further
// events are counted in DroppedEvents instead of stored. Long-lived
// per-job tracers (watch jobs) use this to stay bounded. 0 removes the
// cap.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// add appends one complete event.
func (t *Tracer) add(ev Event) {
	t.mu.Lock()
	t.appendLocked(ev)
	t.mu.Unlock()
}

func (t *Tracer) appendLocked(ev Event) {
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Events returns a copy of the collected events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// WriteJSON writes the collected events as a Chrome trace-event JSON
// object (TraceDoc): {"traceEvents": [...], "displayTimeUnit": "ms"},
// with "droppedEvents" when the event cap discarded any.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := TraceDoc{TraceEvents: []Event{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		doc.TraceEvents = append(doc.TraceEvents, t.events...)
		doc.DroppedEvents = t.dropped
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// DrawProfile records a verified file's engine spans, drawn from its
// profile rather than timed a second time. The compile stages that ran
// go back to back from start (parse, lower and flow carry the file
// name); from start plus the compile wall time a solve span holds, back
// to back, one assert span per assertion whose encoder or search ran,
// each holding its encode and then its search. The spans land on the
// lane of ctx's current span; with a non-empty process they land
// instead on a fresh pid that a process_name event labels process,
// which is how a coordinator shows the work a worker did for it. No-op
// without a tracer.
func DrawProfile(ctx context.Context, start time.Time, file string, p *RunProfile, process string) {
	tel := From(ctx)
	if tel == nil || tel.Tracer == nil || p == nil {
		return
	}
	t := tel.Tracer
	var traceID string
	if tc := TraceContextFrom(ctx); tc.Valid() {
		traceID = tc.TraceID
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pid, lane := int64(1), int64(0)
	if process != "" {
		t.procs++
		pid = 1 + t.procs
		t.appendLocked(Event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": process}})
	} else if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		lane = parent.lane
	}
	at := start.Sub(t.base)
	span := func(name string, ns int64, kv ...any) {
		var args map[string]any
		if len(kv) > 0 || traceID != "" {
			args = make(map[string]any, len(kv)/2+1)
			for i := 0; i+1 < len(kv); i += 2 {
				args[kv[i].(string)] = kv[i+1]
			}
			if traceID != "" {
				args["trace_id"] = traceID
			}
		}
		t.appendLocked(Event{Name: name, Cat: "pipeline", Ph: "X",
			TS: at.Microseconds(), Dur: time.Duration(ns).Microseconds(), PID: pid, TID: lane, Args: args})
	}
	wall := make(map[string]int64, len(p.Stages))
	for _, st := range p.Stages {
		wall[st.Name] = st.WallNS
	}
	for _, name := range [...]string{"parse", "lower", "flow", "rename", "constraints"} {
		ns := wall[name]
		if ns == 0 {
			continue
		}
		if name == "rename" || name == "constraints" {
			span(name, ns)
		} else {
			span(name, ns, "file", file)
		}
		at += time.Duration(ns)
	}
	if len(p.Assertions) == 0 {
		return
	}
	at = start.Sub(t.base) + time.Duration(p.CompileWallNS)
	span("solve", p.SolveWallNS, "asserts", len(p.Assertions))
	for _, a := range p.Assertions {
		if a.EncodeNS == 0 && a.SearchNS == 0 {
			continue
		}
		span("assert", a.EncodeNS+a.SearchNS, "index", a.Index, "vars", a.Vars, "clauses", a.Clauses)
		if a.EncodeNS > 0 {
			span("encode", a.EncodeNS)
			at += time.Duration(a.EncodeNS)
		}
		if a.SearchNS > 0 {
			span("search", a.SearchNS)
			at += time.Duration(a.SearchNS)
		}
	}
}

// Instant records a zero-duration annotation (trace-event phase "i") on
// the current span's lane — redispatches, degradations, and other
// point-in-time facts that should be visible on the timeline. No-op
// without telemetry.
func Instant(ctx context.Context, name string, kv ...any) {
	tel := From(ctx)
	if tel == nil || tel.Tracer == nil {
		return
	}
	tr := tel.Tracer
	var lane int64
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		lane = parent.lane
	}
	var args map[string]any
	if len(kv) >= 2 {
		args = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			if k, ok := kv[i].(string); ok {
				args[k] = kv[i+1]
			}
		}
	}
	if tc := TraceContextFrom(ctx); tc.Valid() {
		if args == nil {
			args = make(map[string]any, 1)
		}
		args["trace_id"] = tc.TraceID
	}
	tr.add(Event{
		Name: name,
		Cat:  "pipeline",
		Ph:   "i",
		S:    "t",
		TS:   tr.now().Sub(tr.base).Microseconds(),
		PID:  1,
		TID:  lane,
		Args: args,
	})
}

// Span is one timed interval of the pipeline. A nil *Span (what
// StartSpan returns when no telemetry is attached) accepts every method
// as a no-op.
type Span struct {
	tr    *Tracer
	name  string
	cat   string
	lane  int64
	start time.Time

	mu    sync.Mutex
	args  map[string]any
	ended bool
}

// StartSpan begins a span named name on the current lane (inherited from
// the enclosing span, or the root lane) and returns a derived context
// carrying it. When ctx has no Telemetry or no Tracer, it returns ctx
// unchanged and a nil span.
func StartSpan(ctx context.Context, name string, kv ...any) (context.Context, *Span) {
	return startSpan(ctx, name, false, kv)
}

// StartRootSpan begins a span on a fresh lane — one lane per independent
// unit of work (e.g. per verified file) keeps concurrent units from
// interleaving on the trace viewer's timeline.
func StartRootSpan(ctx context.Context, name string, kv ...any) (context.Context, *Span) {
	return startSpan(ctx, name, true, kv)
}

func startSpan(ctx context.Context, name string, newLane bool, kv []any) (context.Context, *Span) {
	tel := From(ctx)
	if tel == nil || tel.Tracer == nil {
		return ctx, nil
	}
	tr := tel.Tracer
	var lane int64
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil && !newLane {
		lane = parent.lane
	} else if newLane {
		lane = tr.NextLane()
	}
	sp := &Span{tr: tr, name: name, cat: "pipeline", lane: lane, start: tr.now()}
	for i := 0; i+1 < len(kv); i += 2 {
		if k, ok := kv[i].(string); ok {
			sp.setArg(k, kv[i+1])
		}
	}
	// Stamp the distributed trace ID so every span of a propagated trace
	// is greppable by it. This runs after the nil-telemetry early return,
	// keeping the disabled fast path allocation-free.
	if tc := TraceContextFrom(ctx); tc.Valid() {
		sp.setArg("trace_id", tc.TraceID)
	}
	return context.WithValue(ctx, spanKey, sp), sp
}

// setArg attaches a key/value argument rendered in the trace viewer's
// detail pane. Concurrency-safe.
func (s *Span) setArg(key string, value any) {
	s.mu.Lock()
	if s.args == nil {
		s.args = make(map[string]any)
	}
	s.args[key] = value
	s.mu.Unlock()
}

// End completes the span, emitting its trace event. Safe to call more
// than once (only the first takes effect) and on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tr.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	args := s.args
	s.mu.Unlock()
	s.tr.add(Event{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		TS:   s.start.Sub(s.tr.base).Microseconds(),
		Dur:  end.Sub(s.start).Microseconds(),
		PID:  1,
		TID:  s.lane,
		Args: args,
	})
}
