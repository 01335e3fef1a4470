package policy

import (
	"bytes"
	"testing"
)

// FuzzPolicy hammers the JSON loader: arbitrary bytes must never panic,
// and any input it does accept must compile into a policy with a stable
// fingerprint, a usable prelude, and a deterministic re-load.
func FuzzPolicy(f *testing.F) {
	for _, n := range []string{ContextXSSName, SSRFName} {
		c, err := Lookup(n)
		if err != nil {
			f.Fatal(err)
		}
		data, err := c.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","lattice":["a","b"]}`))
	f.Add([]byte(`{"name":"x","lattice":["a","a"]}`))
	f.Add([]byte(`{"name":"x","lattice":["a","b"],"sinks":[{"name":"echo","bound":"z"}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadJSON("fuzz", data)
		if err != nil {
			return
		}
		fp := c.Fingerprint()
		if fp == "" {
			t.Fatal("accepted policy has empty fingerprint")
		}
		if c.Prelude() == nil {
			t.Fatal("accepted policy has nil prelude")
		}
		if c.Prelude().Lattice() == nil || c.Prelude().Lattice().Size() < 2 {
			t.Fatal("accepted policy has degenerate lattice")
		}
		again, err := LoadJSON("fuzz", data)
		if err != nil {
			t.Fatalf("second load of accepted input failed: %v", err)
		}
		if again.Fingerprint() != fp {
			t.Fatalf("non-deterministic fingerprint: %s vs %s", fp, again.Fingerprint())
		}
		// The accepted policy's own marshal must stay loadable (no
		// lossy normalization that invalidates the declaration).
		out, err := c.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal of accepted policy failed: %v", err)
		}
		if _, err := LoadJSON("fuzz", out); err != nil {
			t.Fatalf("re-load of marshaled policy failed: %v\n%s", err, bytes.TrimSpace(out))
		}
	})
}
