package cluster

// The daemon parity golden pins every count a coordinating daemon
// shows — /metrics, the store's Stats, /healthz and /v1/cluster — over
// one fixed script of jobs, so a change to where a count is kept cannot
// change what any of those surfaces reads.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"webssari/client"
	"webssari/internal/buildinfo"
	"webssari/internal/service"
	"webssari/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden under testdata/")

const daemonGolden = "testdata/daemon_parity.golden.json"

// paritySeries drops the series the golden does not pin: histogram
// buckets and sums are wall-clock.
func paritySeries(name string) bool {
	base, _, _ := strings.Cut(name, "{")
	return !strings.HasSuffix(base, "_bucket") && !strings.HasSuffix(base, "_sum")
}

// scrapeCounts reads a /metrics page into name → value, keeping every
// counter and gauge and every histogram's _count.
func scrapeCounts(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		name := line[:i]
		if !paritySeries(name) {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// getJSON decodes a GET response into a generic map.
func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// clusterView is /v1/cluster without what differs from run to run: the
// heartbeat ages and the workers' listener addresses.
func clusterView(t *testing.T, url string) map[string]any {
	t.Helper()
	st := getJSON(t, url+"/v1/cluster")
	rows, _ := st["workers"].([]any)
	for _, row := range rows {
		w := row.(map[string]any)
		delete(w, "last_heartbeat_ms")
		delete(w, "evict_in_ms")
		delete(w, "addr")
	}
	return st
}

// TestDaemonParityGolden runs a coordinating daemon — service, result
// store, telemetry and coordinator, wired as cmd/webssarid wires them —
// over two in-process workers through a fixed script: a file job twice
// (the second is a store hit), a directory job, a queue-full 429, a
// dispatch fault that re-dispatches, a deregistration of both workers
// and a run with no workers, which degrades. It pins every count the
// daemon shows at the end. Regenerate with `go test -run
// TestDaemonParityGolden -update ./internal/cluster` only for an
// intended change.
func TestDaemonParityGolden(t *testing.T) {
	tel := telemetry.New()
	st := openStore(t)

	// slow.php holds its dispatch until released, which is what fills
	// the one-job queue; flaky.php fails its first dispatch attempt.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hooks := Hooks{BeforeDispatch: func(_, file string, attempt int) error {
		switch {
		case file == "slow.php" && attempt == 1:
			once.Do(func() { close(entered) })
			<-release
		case file == "flaky.php" && attempt == 1:
			return errors.New("injected dispatch fault")
		}
		return nil
	}}
	c, _ := newTestCoordinator(t, Config{
		Telemetry:         tel,
		HeartbeatInterval: time.Hour, // no worker heartbeats: nothing may be evicted
		Hooks:             hooks,
	})
	svc := service.New(service.Config{
		Store: st, Telemetry: tel, Runner: c, Workers: 1, QueueSize: 1,
	})
	t.Cleanup(func() { _ = svc.Drain(context.Background()) })
	mux := http.NewServeMux()
	mux.Handle("/v1/cluster", c.Handler())
	mux.Handle("/v1/cluster/", c.Handler())
	mux.Handle("/", svc.Handler())
	daemon := httptest.NewServer(mux)
	t.Cleanup(daemon.Close)

	ctx := context.Background()
	cl := client.New(daemon.URL)
	var ids []string
	for _, name := range []string{"worker-1", "worker-2"} {
		w := newWorkerServer(t, service.Config{})
		reg, err := cl.RegisterWorker(ctx, client.RegisterWorkerRequest{Addr: w.URL, Name: name})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, reg.Worker)
	}
	submit := func(name, src string) string {
		t.Helper()
		sub, err := cl.SubmitFile(ctx, client.SubmitFileRequest{Name: name, Source: src})
		if err != nil {
			t.Fatalf("submitting %s: %v", name, err)
		}
		return sub.Job
	}
	wait := func(job string) {
		t.Helper()
		js, err := cl.Wait(ctx, job)
		if err != nil || js.State != "done" {
			t.Fatalf("job %s: %+v, %v", job, js, err)
		}
	}

	src := testCorpus["guestbook.php"]
	wait(submit("guestbook.php", src))
	wait(submit("guestbook.php", src)) // answered from the store

	// A relative path keeps file names, and so store bytes and ring
	// placement, the same from run to run.
	sub, err := cl.SubmitDir(ctx, client.SubmitDirRequest{Dir: filepath.Join("..", "..", "examples", "php")})
	if err != nil {
		t.Fatal(err)
	}
	wait(sub.Job)

	wait(submit("flaky.php", testCorpus["search.php"]))

	slow := submit("slow.php", testCorpus["profile.php"])
	<-entered
	queued := submit("queued.php", testCorpus["static.php"])
	_, err = cl.SubmitFile(ctx, client.SubmitFileRequest{Name: "rejected.php", Source: testCorpus["about.php"]})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission past a full queue: %v, want 429", err)
	}
	close(release)
	wait(slow)
	wait(queued)

	got := map[string]any{"cluster_before_leave": clusterView(t, daemon.URL)}
	for _, id := range ids {
		if err := cl.DeregisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	wait(submit("alone.php", testCorpus["footer.php"])) // no worker: degrades

	health := getJSON(t, daemon.URL+"/healthz")
	delete(health, "uptime_ms")
	// The version names the toolchain and platform, so it is checked
	// here rather than pinned in the golden.
	if v, want := health["version"], buildinfo.Version("webssarid"); v != want {
		t.Errorf("/healthz version %v, want %q", v, want)
	}
	delete(health, "version")
	got["healthz"] = health
	got["cluster"] = clusterView(t, daemon.URL)
	got["store"] = st.Stats()
	got["metrics"] = scrapeCounts(t, daemon.URL)

	// Compare in JSON form, so the golden and the live values go
	// through the same encoding.
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(daemonGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(daemonGolden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(daemonGolden)
	if err != nil {
		t.Fatal(err)
	}
	var g, w map[string]any
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	for section := range w {
		gs, _ := json.MarshalIndent(g[section], "", "  ")
		ws, _ := json.MarshalIndent(w[section], "", "  ")
		if string(gs) != string(ws) {
			t.Errorf("%s differs from the golden:\ngot:\n%s\nwant:\n%s", section, gs, ws)
		}
	}
	for section := range g {
		if _, ok := w[section]; !ok {
			t.Errorf("section %s is not in the golden", section)
		}
	}
}
