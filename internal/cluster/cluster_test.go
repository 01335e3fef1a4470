package cluster

// End-to-end cluster tests: real worker daemons (internal/service) behind
// httptest servers, a real coordinator, and the chaos Hooks driving the
// failure scenarios. The load-bearing assertion everywhere is the
// engine's invariant: a clustered run's verdicts — through any worker
// death the coordinator is designed to survive — are byte-identical
// (profiles and placement counters aside) to a local run's.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"webssari"
	"webssari/client"
	"webssari/internal/service"
	"webssari/internal/store"
	"webssari/internal/telemetry"
)

// testCorpus mixes vulnerable and safe entry files so a run's verdict
// set is non-trivial in both directions.
var testCorpus = map[string]string{
	"guestbook.php": "<?php\n$name = $_GET['name'];\necho \"<p>Hello, $name</p>\";\n?>",
	"search.php":    "<?php\n$q = $_GET['q'];\necho \"results for $q\";\n?>",
	"profile.php":   "<?php\n$who = $_GET['who'];\necho \"profile of $who\";\n?>",
	"static.php":    "<?php echo \"static page\"; ?>",
	"about.php":     "<?php echo \"about us\"; ?>",
	"footer.php":    "<?php echo \"footer\"; ?>",
}

func writeCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range testCorpus {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newTestCoordinator builds a coordinator with test-speed backoffs,
// serves its HTTP surface, and wires cleanup.
func newTestCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 10 * time.Millisecond
	}
	c := New(cfg)
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func newWorkerServer(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(service.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func mustRegister(t *testing.T, c *Coordinator, addr, name string) string {
	t.Helper()
	id, err := c.register(addr, name, "")
	if err != nil {
		t.Fatalf("registering %s: %v", name, err)
	}
	return id
}

// counterValue reads a series as /metrics shows it, whichever record
// keeps the count.
func counterValue(c *Coordinator, name string) int64 {
	return int64(c.cfg.Telemetry.Metrics.Snapshot()[name])
}

// projectIdentity renders the deterministic identity of a project
// report — exactly what the byte-identity invariant promises: the files'
// reports without their profiles, and the project's counts of verdicts
// and failures. The profile tree and the counts of files served from and
// compiled past the store depend on placement and are left out.
func projectIdentity(t *testing.T, pr *webssari.ProjectReport) string {
	t.Helper()
	cp := webssari.ProjectReport{
		Dir:             pr.Dir,
		Symptoms:        pr.Symptoms,
		Groups:          pr.Groups,
		VulnerableFiles: pr.VulnerableFiles,
		IncompleteFiles: pr.IncompleteFiles,
		Failures:        pr.Failures,
	}
	for _, f := range pr.Files {
		fc := *f
		fc.Profile = nil
		cp.Files = append(cp.Files, &fc)
	}
	b, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func reportIdentity(t *testing.T, rep *webssari.Report) string {
	t.Helper()
	cp := *rep
	cp.Profile = nil
	b, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, what)
}

// TestClusterVerifyDirMatchesLocal is the invariant in its healthy-path
// form: two workers, a coordinator that owns the result store, every
// file dispatched remotely, report byte-identical to a local run.
func TestClusterVerifyDirMatchesLocal(t *testing.T) {
	dir := writeCorpus(t)
	st := openStore(t)
	c, _ := newTestCoordinator(t, Config{})
	w1 := newWorkerServer(t, service.Config{})
	w2 := newWorkerServer(t, service.Config{})
	mustRegister(t, c, w1.URL, "worker-1")
	mustRegister(t, c, w2.URL, "worker-2")

	ctx := context.Background()
	local, err := webssari.VerifyDirContext(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.VerifyDir(ctx, dir, webssari.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}

	if li, gi := projectIdentity(t, local), projectIdentity(t, got); li != gi {
		t.Fatalf("clustered report diverges from local run:\nlocal:\n%s\nclustered:\n%s", li, gi)
	}
	cl := got.Profile.Cluster
	if cl == nil {
		t.Fatal("clustered report is missing its profile cluster section")
	}
	if cl.Workers != 2 || cl.Remote != len(testCorpus) || cl.Local != 0 || cl.Degraded {
		t.Fatalf("cluster profile = %+v; want 2 workers, all %d files remote, not degraded", cl, len(testCorpus))
	}
	if st.Stats().Entries != len(testCorpus) {
		t.Fatalf("coordinator store holds %d entries; want the %d reports the workers answered", st.Stats().Entries, len(testCorpus))
	}
}

// TestClusterVerifyFileMatchesLocal covers the single-file surface: the
// report decoded from the worker's result envelope renders the local
// run's text.
func TestClusterVerifyFileMatchesLocal(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	w1 := newWorkerServer(t, service.Config{})
	mustRegister(t, c, w1.URL, "worker-1")

	ctx := context.Background()
	src := []byte(testCorpus["guestbook.php"])
	local, err := webssari.VerifyContext(ctx, src, "guestbook.php")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.VerifyFile(ctx, src, "guestbook.php")
	if err != nil {
		t.Fatal(err)
	}
	if li, gi := reportIdentity(t, local), reportIdentity(t, got); li != gi {
		t.Fatalf("clustered report diverges from local run:\nlocal:\n%s\nclustered:\n%s", li, gi)
	}
	if got.String() != local.String() {
		t.Fatalf("remote single-file text diverges from the local run's:\nlocal:\n%s\nclustered:\n%s", local, got)
	}
	if cl := got.Profile.Cluster; cl == nil || cl.Remote != 1 || cl.Degraded {
		t.Fatalf("cluster profile = %+v; want one remote file, not degraded", got.Profile.Cluster)
	}
}

// TestClusterVerifyFileTextFetchFailureIsNotEmpty: a worker whose
// result-envelope fetch fails must not yield a report whose text is
// silently empty. The failed fetch fails the attempt, and the
// coordinator's retries end in local execution, which renders the local
// run's text.
func TestClusterVerifyFileTextFetchFailureIsNotEmpty(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	inner := service.New(service.Config{}).Handler()
	w1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("envelope") == "1" {
			http.Error(w, "envelope view unavailable", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(w1.Close)
	mustRegister(t, c, w1.URL, "worker-1")

	ctx := context.Background()
	src := []byte(testCorpus["guestbook.php"])
	local, err := webssari.VerifyContext(ctx, src, "guestbook.php")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.VerifyFile(ctx, src, "guestbook.php")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != local.String() {
		t.Fatalf("coordinator text diverges from the local run's:\nlocal:\n%s\nclustered:\n%q", local, got.String())
	}
	if cl := got.Profile.Cluster; cl == nil || !cl.Degraded || cl.Remote != 0 || cl.Redispatches != DefaultRetryBudget-1 {
		t.Fatalf("cluster profile = %+v; want every attempt retried, then the file degraded to local execution", got.Profile.Cluster)
	}
}

// TestClusterFailover drives the three kill points the design must
// survive without losing, duplicating, or changing a single verdict.
func TestClusterFailover(t *testing.T) {
	ctx := context.Background()

	// The worker is already dead when the run starts; every file it owns
	// fails over to the survivor.
	t.Run("worker-down-before-dispatch", func(t *testing.T) {
		dir := writeCorpus(t)
		local, err := webssari.VerifyDirContext(ctx, dir)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := newTestCoordinator(t, Config{})
		victim := newWorkerServer(t, service.Config{})
		survivor := newWorkerServer(t, service.Config{})
		mustRegister(t, c, victim.URL, "victim")
		mustRegister(t, c, survivor.URL, "survivor")
		victim.Close() // dead before the first dispatch

		got, err := c.VerifyDir(ctx, dir)
		if err != nil {
			t.Fatal(err)
		}
		if li, gi := projectIdentity(t, local), projectIdentity(t, got); li != gi {
			t.Fatalf("verdicts diverged after pre-run worker death:\nlocal:\n%s\nclustered:\n%s", li, gi)
		}
		if got.Profile.Cluster.Degraded {
			t.Fatal("run degraded although a healthy survivor was available")
		}
	})

	// The worker dies mid-corpus, on its first dispatch. Starting with
	// the victim as the only member makes the kill deterministic: the
	// first file must route to it, and the fault hook registers the
	// survivor and then kills the victim — so at least one file is
	// provably re-dispatched.
	t.Run("worker-killed-mid-run", func(t *testing.T) {
		dir := writeCorpus(t)
		local, err := webssari.VerifyDirContext(ctx, dir)
		if err != nil {
			t.Fatal(err)
		}

		victim := newWorkerServer(t, service.Config{})
		survivor := newWorkerServer(t, service.Config{})
		var (
			coord    *Coordinator
			mu       sync.Mutex
			victimID string
			killed   bool
		)
		cfg := Config{Hooks: Hooks{BeforeDispatch: func(workerID, file string, attempt int) error {
			mu.Lock()
			defer mu.Unlock()
			if workerID != victimID || killed {
				return nil
			}
			killed = true
			if _, err := coord.register(survivor.URL, "survivor", ""); err != nil {
				t.Errorf("registering survivor: %v", err)
			}
			victim.CloseClientConnections()
			victim.Close() // SIGKILL, in-process form
			return nil
		}}}
		c, _ := newTestCoordinator(t, cfg)
		coord = c
		mu.Lock()
		victimID = mustRegister(t, c, victim.URL, "victim")
		mu.Unlock()

		got, err := c.VerifyDir(ctx, dir)
		if err != nil {
			t.Fatal(err)
		}
		if li, gi := projectIdentity(t, local), projectIdentity(t, got); li != gi {
			t.Fatalf("verdicts diverged after mid-run worker death:\nlocal:\n%s\nclustered:\n%s", li, gi)
		}
		if len(got.Files) != len(testCorpus) {
			t.Fatalf("report has %d files; corpus has %d — a verdict was lost or duplicated", len(got.Files), len(testCorpus))
		}
		if got.Profile.Cluster.Redispatches < 1 {
			t.Fatalf("cluster profile = %+v; the killed worker's file must be re-dispatched", got.Profile.Cluster)
		}
		if got.Profile.Cluster.Degraded {
			t.Fatal("run degraded although the survivor could take every file")
		}
		if n := counterValue(c, telemetry.MetricClusterRedispatches); n < 1 {
			t.Fatalf("redispatch counter = %d; want >= 1", n)
		}
	})

	// The worker dies after its results are persisted in the
	// coordinator's store: the replacement run serves the same verdicts
	// from the store without dispatching a file — nothing the dead
	// worker computed is lost.
	t.Run("worker-killed-after-results-persisted", func(t *testing.T) {
		dir := writeCorpus(t)
		local, err := webssari.VerifyDirContext(ctx, dir)
		if err != nil {
			t.Fatal(err)
		}
		st := openStore(t)
		c, _ := newTestCoordinator(t, Config{})

		w1 := newWorkerServer(t, service.Config{})
		id1 := mustRegister(t, c, w1.URL, "first")
		first, err := c.VerifyDir(ctx, dir, webssari.WithStore(st))
		if err != nil {
			t.Fatal(err)
		}
		if st.Stats().Entries == 0 {
			t.Fatal("the coordinator persisted nothing before the worker died")
		}

		if !c.deregister(id1) {
			t.Fatal("deregistering the first worker failed")
		}
		w1.Close()

		w2 := newWorkerServer(t, service.Config{})
		mustRegister(t, c, w2.URL, "second")
		dispatches := counterValue(c, telemetry.MetricClusterDispatches)
		second, err := c.VerifyDir(ctx, dir, webssari.WithStore(st))
		if err != nil {
			t.Fatal(err)
		}

		li := projectIdentity(t, local)
		if fi := projectIdentity(t, first); fi != li {
			t.Fatalf("first clustered run diverges from local:\nlocal:\n%s\nclustered:\n%s", li, fi)
		}
		if si := projectIdentity(t, second); si != li {
			t.Fatalf("replacement run diverges:\nlocal:\n%s\nclustered:\n%s", li, si)
		}
		if second.StoreHits != len(testCorpus) {
			t.Fatalf("replacement run served %d files from the store; want all %d", second.StoreHits, len(testCorpus))
		}
		if n := counterValue(c, telemetry.MetricClusterDispatches) - dispatches; n != 0 {
			t.Fatalf("replacement run dispatched %d files; want 0", n)
		}
		if cl := second.Profile.Cluster; cl.Remote != 0 || cl.Local != 0 || cl.Degraded {
			t.Fatalf("cluster profile = %+v; want no file placed anywhere", cl)
		}
	})
}

// TestClusterZeroWorkersDegradesToLocal: an empty cluster never fails a
// job — it runs locally and stamps the degradation in the profile.
func TestClusterZeroWorkersDegradesToLocal(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	ctx := context.Background()
	src := []byte(testCorpus["search.php"])

	local, err := webssari.VerifyContext(ctx, src, "search.php")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.VerifyFile(ctx, src, "search.php")
	if err != nil {
		t.Fatalf("zero-worker cluster failed the job instead of degrading: %v", err)
	}
	if li, gi := reportIdentity(t, local), reportIdentity(t, got); li != gi {
		t.Fatalf("degraded verdict diverges from local run:\nlocal:\n%s\ndegraded:\n%s", li, gi)
	}
	cl := got.Profile.Cluster
	if cl == nil || !cl.Degraded || cl.Local != 1 || cl.Workers != 0 {
		t.Fatalf("cluster profile = %+v; want degraded, 1 local file, 0 workers", cl)
	}
	if got.String() != local.String() {
		t.Fatalf("degraded text diverges from the local run's:\nlocal:\n%s\ndegraded:\n%s", local, got)
	}
	if n := counterValue(c, telemetry.MetricClusterDegradedRuns); n != 1 {
		t.Fatalf("degraded-run counter = %d; want 1", n)
	}
	if n := c.degradedRuns.Value(); n != 1 {
		t.Fatalf("degraded-run status counter = %d; want 1", n)
	}
}

// wedgedRunner is a worker engine that never finishes a job — a stand-in
// for a wedged or silently dead daemon whose HTTP frontend still answers.
type wedgedRunner struct{ release chan struct{} }

func (r wedgedRunner) VerifyFile(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
	select {
	case <-ctx.Done():
	case <-r.release:
	}
	return nil, fmt.Errorf("wedged worker released")
}

func (r wedgedRunner) VerifyDir(ctx context.Context, dir string, opts ...webssari.Option) (*webssari.ProjectReport, error) {
	select {
	case <-ctx.Done():
	case <-r.release:
	}
	return nil, fmt.Errorf("wedged worker released")
}

// TestClusterEvictionCancelsInFlightDispatch: a worker that accepts a
// job and then goes silent is evicted on missed heartbeats, and the
// eviction — not the (much longer) dispatch timeout — is what unblocks
// the in-flight dispatch.
func TestClusterEvictionCancelsInFlightDispatch(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	wedged := newWorkerServer(t, service.Config{Runner: wedgedRunner{release: release}})

	evicted := make(chan string, 1)
	c, _ := newTestCoordinator(t, Config{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   2,
		RetryBudget:       2,
		// Deliberately enormous: if the test finishes fast, it was the
		// eviction that cancelled the dispatch.
		DispatchTimeout: 5 * time.Minute,
		Hooks: Hooks{OnEvict: func(id string) {
			select {
			case evicted <- id:
			default:
			}
		}},
	})
	mustRegister(t, c, wedged.URL, "wedged") // registers, then never heartbeats

	ctx := context.Background()
	src := []byte(testCorpus["static.php"])
	local, err := webssari.VerifyContext(ctx, src, "static.php")
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got, err := c.VerifyFile(ctx, src, "static.php")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("dispatch took %v; eviction should have cancelled it within a few heartbeat intervals", elapsed)
	}
	select {
	case <-evicted:
	default:
		t.Fatal("the silent worker was never evicted")
	}
	if li, gi := reportIdentity(t, local), reportIdentity(t, got); li != gi {
		t.Fatalf("post-eviction verdict diverges from local run:\nlocal:\n%s\ngot:\n%s", li, gi)
	}
	if cl := got.Profile.Cluster; cl == nil || !cl.Degraded {
		t.Fatalf("cluster profile = %+v; the run should have degraded to local after the only worker died mid-job", got.Profile.Cluster)
	}
	if n := counterValue(c, telemetry.MetricClusterEvictions); n < 1 {
		t.Fatalf("eviction counter = %d; want >= 1", n)
	}
}

// TestClusterConcurrentRegistrationAndEviction hammers membership from
// several goroutines while the eviction loop runs at full speed and the
// status endpoint is read concurrently — the data-race canary for the
// coordinator's membership state.
func TestClusterConcurrentRegistrationAndEviction(t *testing.T) {
	c, ts := newTestCoordinator(t, Config{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMisses:   1,
	})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				addr := fmt.Sprintf("http://10.0.%d.%d:7070", g+1, i+1)
				id, err := c.register(addr, fmt.Sprintf("g%d-w%d", g, i), "")
				if err != nil {
					t.Errorf("concurrent register: %v", err)
					return
				}
				switch i % 3 {
				case 0:
					c.heartbeat(id)
				case 1:
					c.deregister(id) // may race an eviction; both outcomes are fine
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := client.New(ts.URL)
		for i := 0; i < 30; i++ {
			if _, err := cl.Cluster(context.Background()); err != nil {
				t.Errorf("concurrent status read: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	// Nobody heartbeats anymore: the eviction loop must drain the
	// remaining membership on its own.
	waitFor(t, 5*time.Second, "all silent workers to be evicted", func() bool {
		return c.liveWorkers() == 0
	})
}

// TestFingerprintGate: workers running different verdict-shaping options
// than the coordinator are rejected at the door, before they can break
// verdict identity.
func TestFingerprintGate(t *testing.T) {
	fpA := Fingerprint(webssari.WithConfig(webssari.Config{Deadline: 5 * time.Second}))
	fpB := Fingerprint(webssari.WithConfig(webssari.Config{Deadline: 7 * time.Second}))
	if fpA == "" || fpB == "" {
		t.Fatal("fingerprints should never be empty for valid options")
	}
	if fpA == fpB {
		t.Fatal("different deadlines produced the same fingerprint")
	}
	if again := Fingerprint(webssari.WithConfig(webssari.Config{Deadline: 5 * time.Second})); again != fpA {
		t.Fatalf("fingerprint is not deterministic: %s vs %s", again, fpA)
	}

	_, ts := newTestCoordinator(t, Config{Fingerprint: fpA})
	cl := client.New(ts.URL)
	ctx := context.Background()

	if _, err := cl.RegisterWorker(ctx, client.RegisterWorkerRequest{Addr: "http://127.0.0.1:7070", Name: "bad", Fingerprint: fpB}); err == nil {
		t.Fatal("mismatched fingerprint was accepted")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched fingerprint: got %v; want HTTP 409", err)
	}
	if _, err := cl.RegisterWorker(ctx, client.RegisterWorkerRequest{Addr: "http://127.0.0.1:7071", Name: "good", Fingerprint: fpA}); err != nil {
		t.Fatalf("matching fingerprint rejected: %v", err)
	}
	if _, err := cl.RegisterWorker(ctx, client.RegisterWorkerRequest{Addr: "http://127.0.0.1:7072", Name: "legacy"}); err != nil {
		t.Fatalf("empty fingerprint (legacy worker) rejected: %v", err)
	}
	if _, err := cl.RegisterWorker(ctx, client.RegisterWorkerRequest{Name: "no-addr"}); err == nil {
		t.Fatal("registration without an address was accepted")
	}
	if _, err := cl.RegisterWorker(ctx, client.RegisterWorkerRequest{Addr: "not-a-url", Name: "bad-addr"}); err == nil {
		t.Fatal("registration with a relative address was accepted")
	}
}

// TestFingerprintGateAnyLength: the mismatch message abbreviates both
// fingerprints, and the worker's comes straight from the request body,
// so a fingerprint shorter than the abbreviation on either side must
// still be answered 409, not crash the handler.
func TestFingerprintGateAnyLength(t *testing.T) {
	long := Fingerprint(webssari.WithConfig(webssari.Config{Deadline: 5 * time.Second}))
	ctx := context.Background()
	for _, tc := range []struct{ coord, worker string }{
		{coord: long, worker: "abc"},
		{coord: "abc", worker: long},
	} {
		_, ts := newTestCoordinator(t, Config{Fingerprint: tc.coord})
		_, err := client.New(ts.URL).RegisterWorker(ctx, client.RegisterWorkerRequest{
			Addr: "http://127.0.0.1:1", Fingerprint: tc.worker,
		})
		if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusConflict {
			t.Fatalf("coordinator %q, worker %q: got %v; want HTTP 409", tc.coord, tc.worker, err)
		}
	}
}

// TestServiceRoutesJobsThroughCoordinator is the webssarid wiring in
// miniature: a front daemon whose Runner is the coordinator, driven over
// the public client, must produce the same report a local run does —
// with the cluster section present in the wire-served profile.
func TestServiceRoutesJobsThroughCoordinator(t *testing.T) {
	dir := writeCorpus(t)
	ctx := context.Background()
	local, err := webssari.VerifyDirContext(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}

	c, _ := newTestCoordinator(t, Config{})
	w1 := newWorkerServer(t, service.Config{})
	mustRegister(t, c, w1.URL, "worker-1")

	front := httptest.NewServer(service.New(service.Config{Runner: c}).Handler())
	t.Cleanup(front.Close)
	cl := client.New(front.URL)

	sub, err := cl.SubmitDir(ctx, client.SubmitDirRequest{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, sub.Job); err != nil {
		t.Fatal(err)
	}
	pr, err := cl.DirResult(ctx, sub.Job)
	if err != nil {
		t.Fatal(err)
	}

	if li, gi := projectIdentity(t, local), projectIdentity(t, pr); li != gi {
		t.Fatalf("daemon-routed clustered report diverges from local run:\nlocal:\n%s\nclustered:\n%s", li, gi)
	}
	if pr.Profile == nil || pr.Profile.Cluster == nil {
		t.Fatal("wire-served report lost its cluster profile section")
	}
	if pr.Profile.Cluster.Remote != len(testCorpus) {
		t.Fatalf("cluster profile = %+v; want all %d files remote", pr.Profile.Cluster, len(testCorpus))
	}
}

// TestClusterDispatchRetriesInjectedFaults covers the remaining chaos
// dimension: transient dispatch faults (the moral equivalent of 5xx or
// timeouts on the wire). Every file's first two dispatch attempts are
// made to fail; the default retry budget of 3 must absorb both faults,
// land every file remotely on the third attempt, and change nothing
// about the verdicts.
func TestClusterDispatchRetriesInjectedFaults(t *testing.T) {
	ctx := context.Background()
	dir := writeCorpus(t)
	local, err := webssari.VerifyDirContext(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu       sync.Mutex
		attempts = map[string]int{}
	)
	cfg := Config{
		// Keep the worker's breaker out of the picture: with faults on
		// two consecutive attempts per file and files dispatched
		// concurrently, the default threshold of 3 could trip open and
		// turn a retry test into a degradation test.
		BreakerThreshold: 1000,
		Hooks: Hooks{BeforeDispatch: func(workerID, file string, attempt int) error {
			mu.Lock()
			defer mu.Unlock()
			attempts[file]++
			if attempts[file] <= 2 {
				return fmt.Errorf("injected dispatch fault (%s attempt %d)", file, attempt)
			}
			return nil
		}},
	}
	c, _ := newTestCoordinator(t, cfg)
	w1 := newWorkerServer(t, service.Config{})
	mustRegister(t, c, w1.URL, "worker-1")

	got, err := c.VerifyDir(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}

	if li, gi := projectIdentity(t, local), projectIdentity(t, got); li != gi {
		t.Fatalf("report diverges from local run after injected dispatch faults:\nlocal:\n%s\nclustered:\n%s", li, gi)
	}
	cl := got.Profile.Cluster
	if cl == nil || cl.Degraded || cl.Remote != len(testCorpus) || cl.Local != 0 {
		t.Fatalf("cluster profile = %+v; want every file remote on the third attempt, not degraded", cl)
	}
	mu.Lock()
	for file, n := range attempts {
		if n != 3 {
			t.Errorf("%s saw %d dispatch attempts; want exactly 3 (two injected faults + one success)", file, n)
		}
	}
	mu.Unlock()
	wantFaults := int64(2 * len(testCorpus))
	if n := counterValue(c, telemetry.MetricClusterDispatchFailures); n != wantFaults {
		t.Errorf("dispatch-failure counter = %d; want %d (two injected faults per file)", n, wantFaults)
	}
	if n := counterValue(c, telemetry.MetricClusterRedispatches); n != wantFaults {
		t.Errorf("redispatch counter = %d; want %d (each fault forces one re-dispatch)", n, wantFaults)
	}
	if cl.Redispatches != int(wantFaults) {
		t.Errorf("profile redispatches = %d; want %d", cl.Redispatches, wantFaults)
	}
}

// TestReregistrationRetiresWorkerUp: a worker that registers again at
// the same address retires its old id, and /metrics shows the old id
// down, the new one up and one live worker.
func TestReregistrationRetiresWorkerUp(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	old := mustRegister(t, c, "http://127.0.0.1:1", "worker")
	cur := mustRegister(t, c, "http://127.0.0.1:1", "worker")
	text := c.cfg.Telemetry.Metrics.PrometheusText()
	for _, want := range []string{
		telemetry.Name(telemetry.MetricClusterWorkerUp, "worker", old) + " 0\n",
		telemetry.Name(telemetry.MetricClusterWorkerUp, "worker", cur) + " 1\n",
		telemetry.MetricClusterWorkersLive + " 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, text)
		}
	}
}
