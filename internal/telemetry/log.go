package telemetry

// Structured logging for the daemonized binaries, built on log/slog and
// following the same nil-safety contract as the rest of the package: a
// nil *Logger accepts every call and does nothing, so library code logs
// unconditionally and pays nothing when the operator did not wire a
// logger.
//
// Two pieces:
//
//   - Logger: a thin wrapper over *slog.Logger selecting text or JSON
//     output at a level, with With() for attaching stable attributes
//     (job_id, trace_id, worker, file). Service and cluster code pass
//     job-scoped loggers through context (WithLogger/LoggerFrom) so a
//     coordinator dispatch log line automatically carries the job's
//     trace ID.
//
//   - FlightRecorder: a bounded in-memory ring of recent log events,
//     teed off the output handler regardless of its level, served as
//     JSON at /debug/events. When a job misbehaves in production the
//     recorder holds the last N events — including debug-level ones the
//     operator did not ask to print — without unbounded growth.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"
)

// DefaultFlightRecorderSize bounds the /debug/events ring when callers
// pass a non-positive capacity.
const DefaultFlightRecorderSize = 256

// ParseLogLevel maps a -log-level flag value to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// Logger is a nil-safe structured logger. The zero of the type — a nil
// pointer — discards everything, so callers never guard log sites.
type Logger struct {
	s   *slog.Logger
	rec *FlightRecorder
}

// NewLogger builds a Logger writing text or JSON lines at or above
// level to w. A positive recorderSize additionally tees every event
// (all levels) into a FlightRecorder retrievable via Recorder.
func NewLogger(w io.Writer, level slog.Level, format string, recorderSize int) (*Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	var out slog.Handler
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		out = slog.NewTextHandler(w, opts)
	case "json":
		out = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
	}
	var rec *FlightRecorder
	var h slog.Handler = out
	if recorderSize > 0 {
		rec = NewFlightRecorder(recorderSize)
		h = &teeHandler{out: out, rec: &recorderHandler{rec: rec}}
	}
	return &Logger{s: slog.New(h), rec: rec}, nil
}

// Recorder returns the flight recorder teed off this logger, or nil.
func (l *Logger) Recorder() *FlightRecorder {
	if l == nil {
		return nil
	}
	return l.rec
}

// With returns a Logger that includes the given key/value attributes on
// every event. Nil-safe: a nil receiver stays nil.
func (l *Logger) With(args ...any) *Logger {
	if l == nil || l.s == nil {
		return nil
	}
	return &Logger{s: l.s.With(args...), rec: l.rec}
}

func (l *Logger) log(level slog.Level, msg string, args ...any) {
	if l == nil || l.s == nil {
		return
	}
	l.s.Log(context.Background(), level, msg, args...)
}

// Debug logs at debug level.
func (l *Logger) Debug(msg string, args ...any) { l.log(slog.LevelDebug, msg, args...) }

// Info logs at info level.
func (l *Logger) Info(msg string, args ...any) { l.log(slog.LevelInfo, msg, args...) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, args ...any) { l.log(slog.LevelWarn, msg, args...) }

// WithLogger returns a context carrying l, typically a job-scoped
// logger already annotated with job_id and trace_id. Attaching nil is a
// no-op.
func WithLogger(ctx context.Context, l *Logger) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, loggerKey, l)
}

// LoggerFrom returns the Logger carried by ctx, or nil. The result is
// safe to use either way.
func LoggerFrom(ctx context.Context) *Logger {
	if ctx == nil {
		return nil
	}
	l, _ := ctx.Value(loggerKey).(*Logger)
	return l
}

// LogEvent is one recorded log record, shaped for JSON exposition.
type LogEvent struct {
	Time  time.Time      `json:"time"`
	Level string         `json:"level"`
	Msg   string         `json:"msg"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// FlightRecorder is a fixed-capacity ring of recent LogEvents. All
// methods are safe for concurrent use and nil-safe.
type FlightRecorder struct {
	mu       sync.Mutex
	buf      []LogEvent
	next     int // overwrite cursor once the ring is full
	recorded int64
	capacity int
}

// NewFlightRecorder returns a recorder holding the last `capacity`
// events (DefaultFlightRecorderSize when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRecorderSize
	}
	return &FlightRecorder{capacity: capacity}
}

// Record appends ev, evicting the oldest event once full.
func (f *FlightRecorder) Record(ev LogEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if len(f.buf) < f.capacity {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.next] = ev
		f.next = (f.next + 1) % f.capacity
	}
	f.recorded++
	f.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []LogEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]LogEvent, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// Recorded returns the count of events ever recorded (retained or
// evicted).
func (f *FlightRecorder) Recorded() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recorded
}

// Handler serves the ring as JSON — the /debug/events endpoint.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		events := f.Events()
		var recorded int64
		capacity := 0
		if f != nil {
			recorded = f.Recorded()
			capacity = f.capacity
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(struct {
			Capacity int        `json:"capacity"`
			Recorded int64      `json:"recorded"`
			Dropped  int64      `json:"dropped"`
			Events   []LogEvent `json:"events"`
		}{capacity, recorded, recorded - int64(len(events)), events})
	})
}

// teeHandler forwards records to the output handler at its configured
// level while unconditionally feeding the flight recorder, so the ring
// keeps debug context even when stderr prints info and above.
type teeHandler struct {
	out slog.Handler
	rec *recorderHandler
}

func (t *teeHandler) Enabled(context.Context, slog.Level) bool { return true }

func (t *teeHandler) Handle(ctx context.Context, r slog.Record) error {
	_ = t.rec.Handle(ctx, r)
	if t.out.Enabled(ctx, r.Level) {
		return t.out.Handle(ctx, r)
	}
	return nil
}

func (t *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &teeHandler{out: t.out.WithAttrs(attrs), rec: t.rec.withAttrs(attrs)}
}

func (t *teeHandler) WithGroup(name string) slog.Handler {
	return &teeHandler{out: t.out.WithGroup(name), rec: t.rec.withGroup(name)}
}

// recorderHandler adapts a FlightRecorder to slog.Handler, flattening
// groups into dotted key prefixes.
type recorderHandler struct {
	rec    *FlightRecorder
	attrs  []slog.Attr
	prefix string
}

func (h *recorderHandler) Handle(_ context.Context, r slog.Record) error {
	ev := LogEvent{Time: r.Time, Level: r.Level.String(), Msg: r.Message}
	n := len(h.attrs) + r.NumAttrs()
	if n > 0 {
		ev.Attrs = make(map[string]any, n)
		for _, a := range h.attrs { // keys were prefixed in withAttrs
			ev.Attrs[a.Key] = a.Value.Resolve().Any()
		}
		r.Attrs(func(a slog.Attr) bool {
			ev.Attrs[h.prefix+a.Key] = a.Value.Resolve().Any()
			return true
		})
	}
	h.rec.Record(ev)
	return nil
}

func (h *recorderHandler) withAttrs(attrs []slog.Attr) *recorderHandler {
	merged := make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	merged = append(merged, h.attrs...)
	for _, a := range attrs {
		merged = append(merged, slog.Attr{Key: h.prefix + a.Key, Value: a.Value})
	}
	return &recorderHandler{rec: h.rec, attrs: merged, prefix: h.prefix}
}

func (h *recorderHandler) withGroup(name string) *recorderHandler {
	return &recorderHandler{rec: h.rec, attrs: h.attrs, prefix: h.prefix + name + "."}
}
