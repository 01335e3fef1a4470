package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestWriteJSONRoundTrips pins the wire shape served by
// GET /v1/jobs/{id}/trace and consumed by client.JobTrace: the document
// decodes as a TraceDoc, and droppedEvents appears only once the event
// cap has discarded something.
func TestWriteJSONRoundTrips(t *testing.T) {
	base := time.Unix(42, 0)
	clock := base
	tr := &Tracer{base: base, now: func() time.Time { return clock }}
	ctx := WithTelemetry(context.Background(), &Telemetry{Tracer: tr})
	_, sp := StartRootSpan(ctx, "verify_file", "file", "a.php")
	clock = clock.Add(time.Millisecond)
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "droppedEvents") {
		t.Fatalf("droppedEvents written while nothing was dropped:\n%s", buf.String())
	}
	var doc TraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Name != "verify_file" || doc.TraceEvents[0].Dur != 1000 {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}

	tr.SetLimit(1)
	_, sp = StartRootSpan(ctx, "verify_file")
	sp.End()
	buf.Reset()
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc = TraceDoc{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DroppedEvents != 1 || len(doc.TraceEvents) != 1 {
		t.Fatalf("capped document: %d events, %d dropped; want 1 and 1", len(doc.TraceEvents), doc.DroppedEvents)
	}
}

// drawnProfile is a per-file profile as the engine builds it: its
// stages sorted by name, one assertion decided by the encoder and one
// skipped at the deadline.
func drawnProfile() *RunProfile {
	p := &RunProfile{CompileWallNS: 60_000, SolveWallNS: 50_000}
	for name, us := range map[string]int64{"parse": 10, "lower": 5, "flow": 20, "rename": 3, "constraints": 7, "encode": 15, "search": 30} {
		p.AddStage(name, time.Duration(us)*time.Microsecond)
	}
	p.Assertions = []AssertProfile{
		{Index: 0, Vars: 9, Clauses: 20, EncodeNS: 10_000, SearchNS: 30_000},
		{Index: 1, Vars: 4, Clauses: 6, EncodeNS: 5_000},
		{Index: 2, Unknown: true},
	}
	return p
}

// TestDrawProfile pins how a profile becomes spans: the compile stages
// back to back in pipeline order from the start time, the solve span at
// the end of the compile wall time, and inside it one assert span per
// assertion that reached the encoder, holding its encode and search.
func TestDrawProfile(t *testing.T) {
	base := time.Unix(1000, 0)
	tr := &Tracer{base: base, now: func() time.Time { return base }}
	ctx := WithTelemetry(context.Background(), &Telemetry{Tracer: tr})
	ctx, root := StartRootSpan(ctx, "verify_file")
	DrawProfile(ctx, base.Add(100*time.Microsecond), "a.php", drawnProfile(), "")
	root.End()

	type span struct {
		name    string
		ts, dur int64
	}
	want := []span{
		{"parse", 100, 10}, {"lower", 110, 5}, {"flow", 115, 20}, {"rename", 135, 3}, {"constraints", 138, 7},
		{"solve", 160, 50},
		{"assert", 160, 40}, {"encode", 160, 10}, {"search", 170, 30},
		{"assert", 200, 5}, {"encode", 200, 5},
	}
	events := tr.Events()
	if len(events) != len(want)+1 {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want)+1, events)
	}
	lane := events[len(events)-1].TID
	for i, w := range want {
		ev := events[i]
		if ev.Name != w.name || ev.TS != w.ts || ev.Dur != w.dur || ev.Ph != "X" || ev.PID != 1 || ev.TID != lane {
			t.Errorf("span %d = %s ts %d dur %d pid %d tid %d; want %s ts %d dur %d on pid 1 tid %d",
				i, ev.Name, ev.TS, ev.Dur, ev.PID, ev.TID, w.name, w.ts, w.dur, lane)
		}
	}
	if f := events[0].Args["file"]; f != "a.php" {
		t.Errorf("parse span file = %v", f)
	}
	if a := events[5].Args["asserts"]; a != 3 {
		t.Errorf("solve span asserts = %v, want 3", a)
	}
	if a := events[9].Args; a["index"] != 1 || a["vars"] != 4 || a["clauses"] != 6 {
		t.Errorf("second assert span args = %v", a)
	}
}

// TestDrawProfileOnProcessTrack: with a process label each call draws on
// a fresh pid that a process_name event names, and a traced context
// stamps its trace ID on every drawn span.
func TestDrawProfileOnProcessTrack(t *testing.T) {
	tel := &Telemetry{Tracer: NewTracer()}
	tc := NewTraceContext()
	ctx := WithTraceContext(WithTelemetry(context.Background(), tel), tc)
	DrawProfile(ctx, time.Now(), "a.php", drawnProfile(), "worker w-1 (http://w1)")
	DrawProfile(ctx, time.Now(), "b.php", drawnProfile(), "worker w-1 (http://w1)")

	pids := map[int64]bool{}
	for _, ev := range tel.Tracer.Events() {
		if ev.PID == 1 {
			t.Fatalf("worker span on the local pid: %+v", ev)
		}
		if ev.Ph == "M" {
			if ev.Name != "process_name" || ev.Args["name"] != "worker w-1 (http://w1)" {
				t.Fatalf("metadata event = %+v", ev)
			}
			pids[ev.PID] = true
			continue
		}
		if !pids[ev.PID] {
			t.Fatalf("span before its process_name event: %+v", ev)
		}
		if ev.Args["trace_id"] != tc.TraceID {
			t.Fatalf("%s span trace_id = %v, want %s", ev.Name, ev.Args["trace_id"], tc.TraceID)
		}
	}
	if len(pids) != 2 {
		t.Fatalf("two calls used pids %v, want two fresh ones", pids)
	}
}

// TestDrawProfileWithoutTracer: no tracer, nothing drawn, no allocation.
func TestDrawProfileWithoutTracer(t *testing.T) {
	p := drawnProfile()
	allocs := testing.AllocsPerRun(100, func() {
		DrawProfile(context.Background(), time.Time{}, "a.php", p, "")
	})
	if allocs != 0 {
		t.Errorf("DrawProfile without a tracer allocates %.1f per op, want 0", allocs)
	}
}
