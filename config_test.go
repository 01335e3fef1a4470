package webssari_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"webssari"
)

// TestConfigRoundTrip pins the WithConfig/ExportConfig contract:
// exporting the configuration produced by applying a Config returns
// that Config, including across a JSON round trip (the daemon's use),
// with live handles (Store, Telemetry) carried by identity.
func TestConfigRoundTrip(t *testing.T) {
	st, err := webssari.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tel := webssari.NewTelemetry()
	base, err := webssari.ExportConfig()
	if err != nil {
		t.Fatal(err)
	}

	cc := base
	cc.ExtraPreludes = []string{"sink DoSQL tainted 1\n"}
	cc.Sinks = []webssari.SinkSpec{{Name: "custom_exec", Args: []int{1, 2}}}
	cc.Sanitizers = []string{"super_escape"}
	cc.Sources = []string{"read_feed"}
	cc.Dir = t.TempDir()
	cc.LoopUnroll = 3
	cc.PaperEnumeration = true
	cc.MaxCounterexamples = 7
	cc.Deadline = 42 * time.Second
	cc.Solver = webssari.SolverConfig{MaxConflicts: 9999, MaxRestarts: 11}
	cc.Parallelism = 2
	cc.Incremental = true
	cc.Store = st
	cc.Telemetry = tel

	out, err := webssari.ExportConfig(webssari.WithConfig(cc))
	if err != nil {
		t.Fatalf("ExportConfig(WithConfig(cc)): %v", err)
	}
	if !reflect.DeepEqual(cc, out) {
		t.Fatalf("Config did not round-trip:\n in: %+v\nout: %+v", cc, out)
	}

	// JSON round trip (the daemon's per-job path): live handles drop,
	// everything else survives.
	data, err := json.Marshal(cc)
	if err != nil {
		t.Fatal(err)
	}
	var decoded webssari.Config
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	wire := cc
	wire.Store, wire.Telemetry = nil, nil
	if !reflect.DeepEqual(wire, decoded) {
		t.Fatalf("Config JSON round trip diverged:\n in: %+v\nout: %+v", wire, decoded)
	}

	// Later options still win over an earlier Config.
	over, err := webssari.ExportConfig(webssari.WithConfig(cc), webssari.WithLoopUnroll(5))
	if err != nil {
		t.Fatal(err)
	}
	if over.LoopUnroll != 5 {
		t.Fatalf("later option lost: unroll = %d, want 5", over.LoopUnroll)
	}
}

// TestConfigReplacesPrelude checks WithPrelude via Config resets the
// recorded merge lists, so Config replacement semantics match the
// option's.
func TestConfigReplacesPrelude(t *testing.T) {
	const minimal = "lattice chain low high\nsink f high 1\n"
	cc, err := webssari.ExportConfig(
		webssari.WithExtraPrelude("sink DoSQL tainted 1\n"),
		webssari.WithPrelude(minimal),
	)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Prelude != minimal {
		t.Fatalf("prelude text = %q", cc.Prelude)
	}
	if len(cc.ExtraPreludes) != 0 {
		t.Fatalf("prelude replacement kept earlier merges: %v", cc.ExtraPreludes)
	}

	// A zero Config is a no-op: applying it changes nothing.
	base, err := webssari.ExportConfig()
	if err != nil {
		t.Fatal(err)
	}
	same, err := webssari.ExportConfig(webssari.WithConfig(webssari.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, same) {
		t.Fatalf("zero Config is not a no-op:\n%+v\nvs\n%+v", base, same)
	}
}
