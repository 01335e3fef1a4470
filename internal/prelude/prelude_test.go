package prelude

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestDefaultPreludeLoads(t *testing.T) {
	p := Default()
	if p.Lattice().Size() != 2 {
		t.Fatalf("lattice size = %d, want 2", p.Lattice().Size())
	}
	tainted := p.Lattice().Top()

	if got := p.VarType("_GET"); got != tainted {
		t.Errorf("_GET type = %v, want tainted", p.Lattice().Name(got))
	}
	if got := p.VarType("HTTP_REFERER"); got != tainted {
		t.Errorf("HTTP_REFERER type = %v, want tainted", p.Lattice().Name(got))
	}
	if got := p.VarType("_SESSION"); got != p.Lattice().Bottom() {
		t.Errorf("_SESSION type = %v, want untainted", p.Lattice().Name(got))
	}
	if got := p.VarType("myvar"); got != p.Lattice().Bottom() {
		t.Errorf("unknown var type = %v, want bottom", p.Lattice().Name(got))
	}

	if _, ok := p.SourceFor("mysql_fetch_array"); !ok {
		t.Errorf("mysql_fetch_array should be a source")
	}
	if s, ok := p.SinkFor("mysql_query"); !ok || !s.Checks(1) || s.Checks(2) {
		t.Errorf("mysql_query sink wrong: %+v ok=%v", s, ok)
	}
	if s, ok := p.SinkFor("echo"); !ok || !s.Checks(1) || !s.Checks(7) {
		t.Errorf("echo sink should check all args: %+v ok=%v", s, ok)
	}
	if sa, ok := p.SanitizerFor("htmlspecialchars"); !ok || sa.Type != p.Lattice().Bottom() {
		t.Errorf("htmlspecialchars sanitizer wrong: %+v ok=%v", sa, ok)
	}
}

func TestLookupsAreCaseInsensitive(t *testing.T) {
	p := Default()
	if _, ok := p.SinkFor("MySQL_Query"); !ok {
		t.Errorf("sink lookup should be case-insensitive")
	}
	if _, ok := p.SourceFor("GETENV"); !ok {
		t.Errorf("source lookup should be case-insensitive")
	}
	if _, ok := p.SanitizerFor("HTMLSpecialChars"); !ok {
		t.Errorf("sanitizer lookup should be case-insensitive")
	}
}

func TestDefaultReturnsIndependentCopies(t *testing.T) {
	a := Default()
	b := Default()
	a.AddSink("dosql", a.Lattice().Top())
	if _, ok := b.SinkFor("dosql"); ok {
		t.Fatalf("Default() instances must be independent")
	}

	// Copies taken and mutated at the same time see only their own
	// definitions, and a later copy sees none of them.
	const n = 8
	copies := make([]*Prelude, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p := Default()
			name := fmt.Sprintf("sink%d", i)
			p.AddSink(name, p.Lattice().Top())
			p.AddSource(name, p.Lattice().Top())
			p.SetVarType(name, p.Lattice().Top())
			copies[i] = p
		}(i)
	}
	close(start)
	wg.Wait()
	fresh := Default()
	for i, p := range copies {
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("sink%d", j)
			if _, ok := p.SinkFor(name); ok != (i == j) {
				t.Errorf("copy %d: SinkFor(%s) = %v", i, name, ok)
			}
			if _, ok := p.SourceFor(name); ok != (i == j) {
				t.Errorf("copy %d: SourceFor(%s) = %v", i, name, ok)
			}
		}
	}
	for j := 0; j < n; j++ {
		if _, ok := fresh.SinkFor(fmt.Sprintf("sink%d", j)); ok {
			t.Errorf("a new Default() sees sink%d", j)
		}
	}
	if fresh.Fingerprint() != b.Fingerprint() {
		t.Errorf("a new Default() fingerprints differently after the copies were mutated")
	}
}

func TestParseCustomPrelude(t *testing.T) {
	src := `
# three-level lattice
lattice chain public internal secret

var _GET secret
source read_secret secret
sink publish internal 1,3
sanitizer declassify public
`
	p, err := Parse("custom", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Lattice().Size() != 3 {
		t.Fatalf("lattice size = %d", p.Lattice().Size())
	}
	secret, _ := p.Lattice().Lookup("secret")
	if p.VarType("_GET") != secret {
		t.Errorf("_GET should be secret")
	}
	s, ok := p.SinkFor("publish")
	if !ok {
		t.Fatalf("publish sink missing")
	}
	if !s.Checks(1) || s.Checks(2) || !s.Checks(3) {
		t.Errorf("publish args wrong: %+v", s.Args)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"unknown directive", "frobnicate x y", "unknown directive"},
		{"bad type", "var _GET radioactive", "unknown safety type"},
		{"late lattice", "var _GET tainted\nlattice chain a b", "before any other"},
		{"bad sink arg", "sink f tainted nope", "bad argument position"},
		{"zero sink arg", "sink f tainted 0", "bad argument position"},
		{"bad lattice", "lattice diamond a b c d", "usage: lattice chain"},
		{"empty lattice", "lattice chain", "usage: lattice chain"},
		{"duplicate lattice element", "lattice chain a b a", "duplicate element \"a\""},
		{"short var", "var _GET", "usage: var"},
		{"short source", "source f", "usage: source"},
		{"short sanitizer", "sanitizer f", "usage: sanitizer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("t", []byte(tc.src))
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.frag)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not contain %q", err, tc.frag)
			}
		})
	}
}

func TestSinkChecks(t *testing.T) {
	s := Sink{Args: nil}
	if !s.Checks(1) || !s.Checks(99) {
		t.Errorf("nil args should check everything")
	}
	s = Sink{Args: []int{2}}
	if s.Checks(1) || !s.Checks(2) {
		t.Errorf("explicit args wrong")
	}
}

func TestVarsEnumeration(t *testing.T) {
	p := Default()
	vars := p.Vars()
	found := false
	for _, v := range vars {
		if v == "_POST" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Vars() missing _POST: %v", vars)
	}
}

func TestSourcesAndSanitizersEnumeration(t *testing.T) {
	p := Default()
	foundSrc, foundSan := false, false
	for _, s := range p.Sources() {
		if s.Name == "mysql_fetch_array" {
			foundSrc = true
		}
	}
	for _, s := range p.Sanitizers() {
		if s.Name == "htmlspecialchars" {
			foundSan = true
		}
	}
	if !foundSrc || !foundSan {
		t.Fatalf("enumerations incomplete: src=%v san=%v", foundSrc, foundSan)
	}
}

func TestSinksEnumeration(t *testing.T) {
	p := Default()
	found := false
	for _, s := range p.Sinks() {
		if s.Name == "mysql_query" && len(s.Args) == 1 && s.Args[0] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Sinks() missing mysql_query spec")
	}
}
