package webssari_test

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"webssari"
)

const envelopeGolden = "testdata/store_envelopes.golden"

// recordingBackend is a StoreBackend that always misses and remembers
// every write.
type recordingBackend struct {
	mu   sync.Mutex
	puts map[string][]byte
}

func (r *recordingBackend) Get(string) ([]byte, bool) { return nil, false }

func (r *recordingBackend) Put(key string, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.puts[key] = append([]byte(nil), payload...)
	return nil
}

func (r *recordingBackend) Invalidate(string) {}

// TestStoreEnvelopeGolden pins, byte for byte, every result-store key
// and envelope a cold VerifyDir over examples/php writes under three
// policies, one line per key with the envelope in hex. A store primed by
// an earlier build stays warm only while this holds: a changed key is a
// miss, a changed envelope a different blob. Regenerate with `go test -run TestStoreEnvelopeGolden -update .`
// only for an intended change, together with a resultSchema bump.
func TestStoreEnvelopeGolden(t *testing.T) {
	var got bytes.Buffer
	for _, pol := range []string{"default", "xss-context", "ssrf"} {
		rec := &recordingBackend{puts: make(map[string][]byte)}
		if _, err := webssari.VerifyDir("examples/php", webssari.WithPolicy(pol), webssari.WithStoreBackend(rec)); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(rec.puts))
		for k := range rec.puts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&got, "=== policy=%s\n", pol)
		for _, k := range keys {
			fmt.Fprintf(&got, "%s %x\n", k, rec.puts[k])
		}
	}
	if *updateGolden {
		if err := os.WriteFile(envelopeGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(envelopeGolden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("store keys or envelopes drifted from %s\n--- got ---\n%s", envelopeGolden, got.Bytes())
	}
}
