package cluster

// The coordinator owns the result store: clustered files are looked up,
// written and recorded in the dependency graph by the engine, on the
// coordinator, whichever worker answered them. These tests pin what that
// buys — store hits and incremental reuse that cost no worker request —
// and what the result envelope carries over the wire: incomplete
// verdicts with their limits, the worker's profile, and nothing it
// cannot hold.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"webssari"
	"webssari/client"
	"webssari/internal/service"
	"webssari/internal/telemetry"
)

// TestClusterIncrementalSkipsUnchanged runs an incremental project
// verification three times through a coordinator with a store. The
// first round dispatches every file; the later rounds plan nothing and
// serve every file from the coordinator's store, as a local engine does.
func TestClusterIncrementalSkipsUnchanged(t *testing.T) {
	dir := writeCorpus(t)
	ctx := context.Background()
	local, err := webssari.VerifyDirContext(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	li := projectIdentity(t, local)

	c, _ := newTestCoordinator(t, Config{})
	w1 := newWorkerServer(t, service.Config{})
	mustRegister(t, c, w1.URL, "worker-1")
	opts := []webssari.Option{webssari.WithStore(openStore(t)), webssari.WithIncremental()}
	for round := 1; round <= 3; round++ {
		pr, err := c.VerifyDir(ctx, dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if gi := projectIdentity(t, pr); gi != li {
			t.Fatalf("round %d diverges from local run:\nlocal:\n%s\nclustered:\n%s", round, li, gi)
		}
		inc, cl := pr.Profile.Incremental, pr.Profile.Cluster
		if round == 1 {
			if cl.Remote != len(testCorpus) {
				t.Fatalf("round 1: cluster profile = %+v; want all %d files remote", cl, len(testCorpus))
			}
			continue
		}
		if inc == nil || inc.Skipped != len(testCorpus) || inc.Planned != 0 {
			t.Fatalf("round %d: incremental profile = %+v; want all %d files skipped", round, inc, len(testCorpus))
		}
		if cl.Remote != 0 || cl.Local != 0 {
			t.Fatalf("round %d: cluster profile = %+v; want no file placed anywhere", round, cl)
		}
	}
}

// TestClusterStoreHitMakesNoWorkerRequest: the coordinator answers a
// repeat file from its own store, without a single HTTP request to the
// worker that verified it the first time.
func TestClusterStoreHitMakesNoWorkerRequest(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	inner := service.New(service.Config{}).Handler()
	var requests atomic.Int64
	w1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(w1.Close)
	mustRegister(t, c, w1.URL, "worker-1")

	ctx := context.Background()
	src := []byte(testCorpus["guestbook.php"])
	st := openStore(t)
	first, err := c.VerifyFile(ctx, src, "guestbook.php", webssari.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	sent := requests.Load()
	if sent == 0 || first.Profile.Cluster.Remote != 1 {
		t.Fatalf("first verification sent %d requests, cluster profile %+v; want it verified remotely", sent, first.Profile.Cluster)
	}
	second, err := c.VerifyFile(ctx, src, "guestbook.php", webssari.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if n := requests.Load() - sent; n != 0 {
		t.Fatalf("store hit sent %d requests to the worker; want 0", n)
	}
	if !second.Profile.StoreHit || second.Profile.Cluster.Remote != 0 {
		t.Fatalf("second verification profile = %+v (cluster %+v); want a store hit placed nowhere", second.Profile, second.Profile.Cluster)
	}
	if reportIdentity(t, second) != reportIdentity(t, first) || second.String() != first.String() {
		t.Fatalf("store hit diverges from the worker's report:\n%s\nvs\n%s", second, first)
	}
}

// TestClusterIncompleteReportsOverTheWire: under a conflict budget of 1
// the branchy fixtures degrade, some without findings and some with
// them. Their reports cross the wire in the result envelope intact —
// verdict, limits and text identical to a local run's — and the
// coordinator's store keeps only the complete ones.
func TestClusterIncompleteReportsOverTheWire(t *testing.T) {
	dir, err := filepath.Abs("../../testdata/branchy")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	budget := webssari.WithSolverConfig(webssari.SolverConfig{MaxConflicts: 1})
	local, err := webssari.VerifyDirContext(ctx, dir, budget)
	if err != nil {
		t.Fatal(err)
	}

	c, _ := newTestCoordinator(t, Config{})
	w1 := newWorkerServer(t, service.Config{})
	mustRegister(t, c, w1.URL, "worker-1")
	st := openStore(t)
	got, err := c.VerifyDir(ctx, dir, budget, webssari.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if li, gi := projectIdentity(t, local), projectIdentity(t, got); li != gi {
		t.Fatalf("clustered report diverges from local run:\nlocal:\n%s\nclustered:\n%s", li, gi)
	}
	if cl := got.Profile.Cluster; cl.Remote != len(local.Files) {
		t.Fatalf("cluster profile = %+v; want all %d files remote", cl, len(local.Files))
	}
	var incomplete, unsafeIncomplete, complete int
	for i, rep := range got.Files {
		if rep.String() != local.Files[i].String() {
			t.Fatalf("%s: text diverges from the local run's:\n%s\nvs\n%s", rep.File, rep, local.Files[i])
		}
		switch {
		case !rep.Incomplete:
			complete++
		case rep.Verdict == webssari.VerdictUnsafe:
			unsafeIncomplete++
		default:
			incomplete++
		}
	}
	if incomplete == 0 || unsafeIncomplete == 0 {
		t.Fatalf("%d incomplete and %d unsafe-and-incomplete reports; the budget should produce both", incomplete, unsafeIncomplete)
	}
	if st.Stats().Entries != complete {
		t.Fatalf("coordinator store holds %d entries; want only the %d complete reports", st.Stats().Entries, complete)
	}
}

// unencodableRunner is a worker engine whose file reports the result
// envelope cannot hold (it has no verdict code for them), standing in
// for a report with more trace steps than the envelope accepts.
type unencodableRunner struct{}

func (unencodableRunner) VerifyFile(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
	return &webssari.Report{File: name, Verdict: "unencodable"}, nil
}

func (unencodableRunner) VerifyDir(ctx context.Context, dir string, opts ...webssari.Option) (*webssari.ProjectReport, error) {
	return nil, errors.New("not used")
}

// TestClusterUnencodableReportReplaysLocally: a worker asked for the
// envelope of a report the envelope cannot hold answers a job failure,
// not the JSON report, and the coordinator replays the file locally.
func TestClusterUnencodableReportReplaysLocally(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	w1 := newWorkerServer(t, service.Config{Runner: unencodableRunner{}})
	mustRegister(t, c, w1.URL, "worker-1")

	ctx := context.Background()
	src := []byte(testCorpus["search.php"])
	wc := client.New(w1.URL)
	sub, err := wc.SubmitFile(ctx, client.SubmitFileRequest{Name: "search.php", Source: string(src)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Wait(ctx, sub.Job); err != nil {
		t.Fatal(err)
	}
	var jobErr *client.JobFailedError
	if _, err := wc.FileResult(ctx, sub.Job); !errors.As(err, &jobErr) {
		t.Fatalf("envelope fetch of an unencodable report: got %v; want a job failure", err)
	}

	local, err := webssari.VerifyContext(ctx, src, "search.php")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.VerifyFile(ctx, src, "search.php")
	if err != nil {
		t.Fatal(err)
	}
	if reportIdentity(t, got) != reportIdentity(t, local) || got.String() != local.String() {
		t.Fatalf("replayed report diverges from the local run's:\n%s\nvs\n%s", got, local)
	}
	if cl := got.Profile.Cluster; cl.Replayed != 1 || cl.Local != 1 || cl.Remote != 0 {
		t.Fatalf("cluster profile = %+v; want the file replayed locally", cl)
	}
}

// TestClusterRemoteProfileCarriesWorkerFigures: in a cold clustered
// run, each remotely verified file's profile is the worker's — a
// non-zero parse time, and the same per-assertion entries as a local
// run, timings aside.
func TestClusterRemoteProfileCarriesWorkerFigures(t *testing.T) {
	dir := writeCorpus(t)
	ctx := context.Background()
	c, _ := newTestCoordinator(t, Config{})
	w1 := newWorkerServer(t, service.Config{})
	mustRegister(t, c, w1.URL, "worker-1")
	got, err := c.VerifyDir(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	local, err := webssari.VerifyDirContext(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cl := got.Profile.Cluster; cl.Remote != len(testCorpus) {
		t.Fatalf("cluster profile = %+v; want all %d files remote", cl, len(testCorpus))
	}
	untimed := func(p *webssari.RunProfile) []telemetry.AssertProfile {
		out := append([]telemetry.AssertProfile(nil), p.Assertions...)
		for i := range out {
			out[i].EncodeNS, out[i].SearchNS = 0, 0
		}
		return out
	}
	for i, rep := range got.Files {
		var parse int64
		for _, st := range rep.Profile.Stages {
			if st.Name == "parse" {
				parse = st.WallNS
			}
		}
		if parse <= 0 {
			t.Fatalf("%s: remote profile has parse time %d; want the worker's cold-compile figure", rep.File, parse)
		}
		g, l := untimed(rep.Profile), untimed(local.Files[i].Profile)
		if len(g) == 0 || len(g) != len(l) {
			t.Fatalf("%s: remote profile has %d assertions, local %d", rep.File, len(g), len(l))
		}
		for k := range g {
			if g[k] != l[k] {
				t.Fatalf("%s: assertion %d differs:\nremote %+v\nlocal  %+v", rep.File, k, g[k], l[k])
			}
		}
	}
}
