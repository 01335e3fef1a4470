package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestParseLogLevel(t *testing.T) {
	cases := []struct {
		in   string
		want slog.Level
		ok   bool
	}{
		{"", slog.LevelInfo, true},
		{"debug", slog.LevelDebug, true},
		{"info", slog.LevelInfo, true},
		{"warn", slog.LevelWarn, true},
		{"warning", slog.LevelWarn, true},
		{"error", slog.LevelError, true},
		{"DEBUG", slog.LevelDebug, true},
		{"verbose", 0, false},
	}
	for _, c := range cases {
		got, err := ParseLogLevel(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseLogLevel(%q) succeeded; want error", c.in)
		}
	}
}

func TestNilLoggerIsNoOp(t *testing.T) {
	var l *Logger
	l.Debug("a")
	l.Info("b", "k", 1)
	l.Warn("c")
	if got := l.With("k", "v"); got != nil {
		t.Fatalf("nil Logger.With = %v; want nil", got)
	}
	if got := l.Recorder(); got != nil {
		t.Fatalf("nil Logger.Recorder = %v; want nil", got)
	}
}

func TestLoggerFormatsAndLevels(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, slog.LevelWarn, "json", 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("not emitted")
	l.Warn("emitted", "job_id", "j1", "trace_id", "t1")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d output lines, want 1: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if rec["msg"] != "emitted" || rec["job_id"] != "j1" || rec["trace_id"] != "t1" {
		t.Fatalf("unexpected record: %v", rec)
	}

	buf.Reset()
	l, err = NewLogger(&buf, slog.LevelInfo, "text", 0)
	if err != nil {
		t.Fatal(err)
	}
	l.With("worker", "w1").Info("hello")
	if out := buf.String(); !strings.Contains(out, "worker=w1") || !strings.Contains(out, "hello") {
		t.Fatalf("text output missing attrs: %q", out)
	}

	if _, err := NewLogger(&buf, slog.LevelInfo, "yaml", 0); err == nil {
		t.Fatal("NewLogger accepted unknown format")
	}
}

func TestLoggerRecordsBelowOutputLevel(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, slog.LevelError, "text", 8)
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("quiet but recorded", "k", "v")
	if buf.Len() != 0 {
		t.Fatalf("debug line reached output at error level: %q", buf.String())
	}
	evs := l.Recorder().Events()
	if len(evs) != 1 || evs[0].Msg != "quiet but recorded" {
		t.Fatalf("flight recorder missed the suppressed line: %+v", evs)
	}
	if evs[0].Attrs["k"] != "v" {
		t.Fatalf("recorded attrs = %v", evs[0].Attrs)
	}
}

func TestLoggerGroupAndWithAttrsInRecorder(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, slog.LevelInfo, "text", 8)
	if err != nil {
		t.Fatal(err)
	}
	l.With("job_id", "j9").Info("msg", "file", "a.php")
	evs := l.Recorder().Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].Attrs["job_id"] != "j9" || evs[0].Attrs["file"] != "a.php" {
		t.Fatalf("attrs = %v", evs[0].Attrs)
	}
}

func TestFlightRecorderRingOverwrite(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(LogEvent{Msg: fmt.Sprintf("m%d", i)})
	}
	if got := r.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d, want 10", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want capacity 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("m%d", 6+i); ev.Msg != want {
			t.Fatalf("Events()[%d].Msg = %q, want %q (oldest-first)", i, ev.Msg, want)
		}
	}
}

func TestFlightRecorderHandler(t *testing.T) {
	r := NewFlightRecorder(2)
	r.Record(LogEvent{Msg: "one"})
	r.Record(LogEvent{Msg: "two"})
	r.Record(LogEvent{Msg: "three"})
	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/events", nil))
	var body struct {
		Capacity int        `json:"capacity"`
		Recorded int64      `json:"recorded"`
		Dropped  int64      `json:"dropped"`
		Events   []LogEvent `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("handler body: %v\n%s", err, rr.Body.String())
	}
	if body.Capacity != 2 || body.Recorded != 3 || body.Dropped != 1 {
		t.Fatalf("capacity/recorded/dropped = %d/%d/%d, want 2/3/1",
			body.Capacity, body.Recorded, body.Dropped)
	}
	if len(body.Events) != 2 || body.Events[0].Msg != "two" || body.Events[1].Msg != "three" {
		t.Fatalf("events = %+v", body.Events)
	}
}

// TestLoggerConcurrency hammers one Logger (and its flight recorder) from
// many goroutines; run with -race this pins the slog wrapper's and the
// ring buffer's thread safety.
func TestLoggerConcurrency(t *testing.T) {
	var buf lockedBuffer
	l, err := NewLogger(&buf, slog.LevelDebug, "json", 32)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			jl := l.With("goroutine", g)
			for i := 0; i < 50; i++ {
				jl.Info("tick", "i", i)
				if i%5 == 0 {
					l.Recorder().Events()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := l.Recorder().Recorded(); got != 400 {
		t.Fatalf("Recorded = %d, want 400", got)
	}
	if evs := l.Recorder().Events(); len(evs) != 32 {
		t.Fatalf("ring holds %d events, want capacity 32", len(evs))
	}
}

// lockedBuffer serializes writes; slog handlers lock per-handler, but the
// test writes through two handlers (output + recorder tee) so the sink
// itself must tolerate concurrency.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func TestLoggerContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if got := LoggerFrom(ctx); got != nil {
		t.Fatalf("LoggerFrom(empty ctx) = %v, want nil", got)
	}
	var buf bytes.Buffer
	l, err := NewLogger(&buf, slog.LevelInfo, "text", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx = WithLogger(ctx, l)
	if got := LoggerFrom(ctx); got != l {
		t.Fatalf("LoggerFrom = %v, want the attached logger", got)
	}
}
