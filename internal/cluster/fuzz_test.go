package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"webssari/internal/service"
)

// FuzzRequestBodies sends arbitrary bodies to every route that decodes
// one — a daemon's POST /v1/files and /v1/dirs, a coordinator's POST
// /v1/cluster/workers and its heartbeat route — and requires an answer
// below 500, or 503: no body may panic a handler or fail it on the
// server's side. The daemon's one job slot is held by a job that never
// finishes, so an admitted body only queues (and a full queue answers
// 429): no fuzzed directory is ever walked.
func FuzzRequestBodies(f *testing.F) {
	svc := service.New(service.Config{Workers: 1, QueueSize: 4, Runner: wedgedRunner{release: make(chan struct{})}})
	daemon := svc.Handler()
	post := func(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	rec := post(daemon, "/v1/files", []byte(`{"name":"held.php","source":"<?php"}`))
	var sub struct{ Job string }
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || rec.Code != http.StatusAccepted {
		f.Fatalf("holding job: %d %s", rec.Code, rec.Body)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		rec := httptest.NewRecorder()
		daemon.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.Job, nil))
		if bytes.Contains(rec.Body.Bytes(), []byte(`"running"`)) {
			break
		}
		if time.Now().After(deadline) {
			f.Fatalf("holding job never started: %s", rec.Body)
		}
	}

	c := New(Config{})
	f.Cleanup(c.Close)
	coord := c.Handler()
	id, err := c.register("http://127.0.0.1:1", "held", "")
	if err != nil {
		f.Fatal(err)
	}
	routes := []struct {
		h    http.Handler
		path string
	}{
		{daemon, "/v1/files"},
		{daemon, "/v1/dirs"},
		{coord, "/v1/cluster/workers"},
		{coord, "/v1/cluster/workers/" + id + "/heartbeat"},
	}

	f.Add(uint8(0), []byte(`{"name":"a.php","source":"<?php echo $_GET['x'];","policy":"xss-context","solver":{"mode":"shared","max_conflicts":5}}`))
	f.Add(uint8(0), []byte(`{"source":"<?php","policy_json":"{}"}`))
	f.Add(uint8(1), []byte(`{"dir":".","incremental":true,"watch":true,"watch_interval_ms":1}`))
	f.Add(uint8(1), []byte(`{"dir":"/nonexistent"}`))
	f.Add(uint8(2), []byte(`{"addr":"http://127.0.0.1:2","name":"w","fingerprint":"abc"}`))
	f.Add(uint8(2), []byte(`{"addr":"not a url"}`))
	f.Add(uint8(3), []byte(`{}`))
	f.Add(uint8(0), []byte(`{"name":1}`))
	f.Add(uint8(1), []byte(`[]`))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := routes[int(route)%len(routes)]
		rec := post(r.h, r.path, body)
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("POST %s %q: HTTP %d %s", r.path, body, rec.Code, rec.Body)
		}
	})
}
