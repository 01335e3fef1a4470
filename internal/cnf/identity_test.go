package cnf_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"webssari/internal/cnf"
	"webssari/internal/constraint"
	"webssari/internal/corpus"
	"webssari/internal/flow"
	"webssari/internal/policy"
	"webssari/internal/prelude"
	"webssari/internal/rename"
)

var updateIdentity = flag.Bool("update", false, "rewrite testdata/encoding_identity.golden")

const identityGolden = "testdata/encoding_identity.golden"

// identityCaps are ceilings small enough that the branchy fixtures trip
// them, so the golden pins where an encoding stops as well as what it
// writes.
var identityCaps = cnf.Options{MaxVars: 64, MaxClauses: 256}

// TestEncodingIdentityGolden pins every check's encoding, byte for byte,
// over examples/php and testdata/branchy under every built-in policy and
// over FullCorpus(0.02) at seed 2004. For each file it hashes, per check,
// EncodeCheck's DIMACS text, branch map and Trivial with
// AssumePriorAsserts off, on, and under small ceilings. Variable numbering decides the SAT search, so any change to
// the encoder's output shows here. Regenerate with `go test -run
// TestEncodingIdentityGolden -update ./internal/cnf` only for an
// intended change.
func TestEncodingIdentityGolden(t *testing.T) {
	var got bytes.Buffer
	for _, dir := range []string{"../../examples/php", "../../testdata/branchy"} {
		for _, name := range policy.Names() {
			pol, err := policy.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := flow.Options{Policy: pol, Dir: dir, Loader: os.ReadFile}
			paths, err := filepath.Glob(filepath.Join(dir, "*.php"))
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range paths {
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/%s policy=%s", filepath.Base(dir), filepath.Base(path), name)
				identityLine(t, &got, label, identitySystem(t, path, src, opts))
			}
		}
	}
	for i, prof := range corpus.FullCorpus(0.02) {
		proj := corpus.Generate(prof, 2004)
		for _, name := range proj.FileNames() {
			label := fmt.Sprintf("corpus/p%03d/%s", i, name)
			identityLine(t, &got, label, identitySystem(t, name, proj.Sources[name], flow.Options{Prelude: prelude.Default()}))
		}
	}
	if *updateIdentity {
		if err := os.WriteFile(identityGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(identityGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("encoding identity differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("encoding identity differs: %d lines, golden has %d", len(gl), len(wl))
	}
}

func identitySystem(t *testing.T, name string, src []byte, opts flow.Options) *constraint.System {
	t.Helper()
	prog, errs := flow.BuildSource(name, src, opts)
	if prog == nil {
		t.Fatalf("%s: build: %v", name, errs)
	}
	return constraint.Build(rename.Rename(prog))
}

// identityLine writes one golden line for a file: its check count and
// the hash of its per-assert encodings.
func identityLine(t *testing.T, w *bytes.Buffer, label string, sys *constraint.System) {
	t.Helper()
	per := sha256.New()
	for i := range sys.Checks {
		for _, opts := range []cnf.Options{{}, {AssumePriorAsserts: true}, identityCaps} {
			enc, err := cnf.EncodeCheck(sys, i, opts)
			fmt.Fprintf(per, "check %d %+v\n", i, opts)
			writeEncoded(t, per, enc, err)
		}
	}
	fmt.Fprintf(w, "%s checks=%d per-assert=%x\n", label, len(sys.Checks), per.Sum(nil)[:8])
}

func writeEncoded(t *testing.T, w io.Writer, enc *cnf.Encoded, err error) {
	t.Helper()
	if err != nil {
		var lim *cnf.LimitError
		if !errors.As(err, &lim) {
			t.Fatalf("encode: %v", err)
		}
		fmt.Fprintf(w, "limit %s %d\n", lim.What, lim.Limit)
		return
	}
	if err := enc.F.WriteDIMACS(w); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "id %d trivial %d branches %v\n", enc.CheckID, enc.Trivial, sortedBranches(enc.BranchVars))
}

// sortedBranches renders a branch map as id:var pairs in ID order.
func sortedBranches(m map[int]int) [][2]int {
	out := make([][2]int, 0, len(m))
	for id, v := range m {
		out = append(out, [2]int{id, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
