package policy

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNamesAndLookup(t *testing.T) {
	names := Names()
	for _, want := range []string{DefaultName, ContextXSSName, SSRFName} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v, missing %q", names, want)
		}
		c, err := Lookup(want)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", want, err)
		}
		if c.Name() != want {
			t.Errorf("Lookup(%q).Name() = %q", want, c.Name())
		}
	}
	if _, err := Lookup("no-such-policy"); err == nil {
		t.Error("Lookup of unknown policy succeeded")
	}
}

// TestCompileValidation feeds each declaration through LoadJSON, so every
// error is reached the way a policy file reaches it.
func TestCompileValidation(t *testing.T) {
	valid := func() Policy {
		return Policy{
			Name:    "t",
			Lattice: []string{"untainted", "tainted"},
			Sinks:   []Sink{{Name: "echo", Bound: "tainted"}},
			Guards:  []Guard{{Routine: "websafe", Type: "untainted"}},
		}
	}
	cases := []struct {
		label   string
		mutate  func(*Policy)
		wantErr string
	}{
		{"ok", func(p *Policy) {}, ""},
		{"no name", func(p *Policy) { p.Name = "" }, "name is required"},
		{"empty lattice", func(p *Policy) { p.Lattice = nil }, "at least two"},
		{"short lattice", func(p *Policy) { p.Lattice = []string{"only"} }, "at least two"},
		{"empty elem", func(p *Policy) { p.Lattice = []string{"", "tainted"} }, "empty lattice element"},
		{"dup elem", func(p *Policy) { p.Lattice = []string{"a", "a"} }, "duplicate lattice element"},
		{"unknown sink bound", func(p *Policy) { p.Sinks[0].Bound = "bogus" }, "unknown lattice element"},
		{"bad sink arg", func(p *Policy) { p.Sinks[0].Args = []int{0} }, "non-positive argument"},
		{"unknown source type", func(p *Policy) {
			p.Sources = []Source{{Name: "input", Type: "bogus"}}
		}, "unknown lattice element"},
		{"unknown sanitizer type", func(p *Policy) {
			p.Sanitizers = []Sanitizer{{Name: "clean", Type: "bogus"}}
		}, "unknown lattice element"},
		{"variant without consts", func(p *Policy) {
			p.Sanitizers = []Sanitizer{{Name: "clean", Type: "untainted",
				Variants: []Variant{{Type: "untainted"}}}}
		}, "without arg_consts"},
		{"unknown guard type", func(p *Policy) { p.Guards[0].Type = "bogus" }, "unknown lattice element"},
		{"empty guard routine", func(p *Policy) { p.Guards[0].Routine = "" }, "empty routine"},
		{"unknown context bound", func(p *Policy) {
			p.Contexts = []Context{{Name: "html", Bound: "bogus"}}
		}, "unknown lattice element"},
		{"context names unknown guard", func(p *Policy) {
			p.Contexts = []Context{{Name: "html", Bound: "tainted", Guard: "ghost"}}
		}, "undeclared guard"},
		{"duplicate context", func(p *Policy) {
			p.Contexts = []Context{
				{Name: "html", Bound: "tainted"},
				{Name: "html", Bound: "tainted"},
			}
		}, "duplicate context"},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			p := valid()
			tc.mutate(&p)
			data, err := json.Marshal(&p)
			if err != nil {
				t.Fatal(err)
			}
			_, err = LoadJSON(tc.label, data)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("LoadJSON: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("LoadJSON error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestSanitizerVariants(t *testing.T) {
	c := ContextXSS()
	name := func(fn string, consts []string) string {
		e, ok := c.SanitizerType(fn, consts)
		if !ok {
			return "<none>"
		}
		return c.Prelude().Lattice().Name(e)
	}
	cases := []struct {
		fn     string
		consts []string
		want   string
	}{
		{"htmlspecialchars", nil, "escaped"},
		{"htmlspecialchars", []string{"ENT_QUOTES"}, "quoted"},
		{"HTMLSPECIALCHARS", []string{"ENT_QUOTES"}, "quoted"}, // case-insensitive fn
		{"htmlentities", []string{"ENT_QUOTES"}, "quoted"},
		{"urlencode", nil, "quoted"},
		{"intval", nil, "untainted"},
		{"websafe_attr", nil, "quoted"},
		{"not_a_sanitizer", nil, "<none>"},
	}
	for _, tc := range cases {
		if got := name(tc.fn, tc.consts); got != tc.want {
			t.Errorf("SanitizerType(%q, %v) = %s, want %s", tc.fn, tc.consts, got, tc.want)
		}
	}
}

func TestSelectGuard(t *testing.T) {
	c := ContextXSS()
	bound := func(ctx string) Violation {
		b, ok := c.ContextBound(ctx)
		if !ok {
			t.Fatalf("no context %q", ctx)
		}
		return Violation{Context: ctx, Bound: b}
	}
	cases := []struct {
		label      string
		violations []Violation
		want       string
		ok         bool
	}{
		{"none", nil, "", false},
		{"html only", []Violation{bound(ContextHTML)}, "websafe_html", true},
		{"attr only", []Violation{bound(ContextAttr)}, "websafe_attr", true},
		{"js only", []Violation{bound(ContextJS)}, "websafe_js", true},
		// A single guard must cover every violation: quoted output is
		// adequate for an attribute but not a script element, so the
		// combination escalates past websafe_attr to websafe_js.
		{"attr and js", []Violation{bound(ContextAttr), bound(ContextJS)}, "websafe_js", true},
		{"html and attr", []Violation{bound(ContextHTML), bound(ContextAttr)}, "websafe_attr", true},
	}
	for _, tc := range cases {
		got, ok := c.SelectGuard(tc.violations)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: SelectGuard = (%q, %v), want (%q, %v)", tc.label, got, ok, tc.want, tc.ok)
		}
	}

	ssrf, def := SSRF(), Default()
	top := func(c *Compiled) Violation {
		return Violation{Bound: c.Prelude().Lattice().Top()}
	}
	if got, ok := ssrf.SelectGuard([]Violation{top(ssrf)}); !ok || got != "websafe_url" {
		t.Errorf("ssrf SelectGuard = (%q, %v), want websafe_url", got, ok)
	}
	if got, ok := def.SelectGuard([]Violation{top(def)}); !ok || got != "websafe" {
		t.Errorf("default SelectGuard = (%q, %v), want websafe", got, ok)
	}
}

func TestHTMLContextStateMachine(t *testing.T) {
	cases := []struct {
		feed string
		want string
	}{
		{"", ContextHTML},
		{"<p>Hello ", ContextHTML},
		{"<p>Hello</p><b>", ContextHTML},
		{"<input type='text' value='", ContextAttr},
		{"<input value=\"", ContextAttr},
		{"<a href=", ContextAttr},
		{"<input value='x'>", ContextHTML},
		{"<script>var who = '", ContextJS},
		{"<script type=\"text/javascript\">x = ", ContextJS},
		{"<script>x=1;</script><p>", ContextHTML},
		{"<!-- <script> --><p>", ContextHTML},
	}
	for _, tc := range cases {
		h := NewHTMLContext()
		h.Feed(tc.feed)
		if got := h.Current(); got != tc.want {
			t.Errorf("Feed(%q): Current() = %q, want %q", tc.feed, got, tc.want)
		}
	}

	// Incremental feeding must agree with one-shot feeding.
	h := NewHTMLContext()
	for _, chunk := range []string{"<scri", "pt>var x", " = '"} {
		h.Feed(chunk)
	}
	if got := h.Current(); got != ContextJS {
		t.Errorf("chunked feed: Current() = %q, want %q", got, ContextJS)
	}
}

func TestFingerprints(t *testing.T) {
	fps := make(map[string]string)
	for _, n := range Names() {
		c, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		fp := c.Fingerprint()
		if fp == "" {
			t.Errorf("%s: empty fingerprint", n)
		}
		if prev, dup := fps[fp]; dup {
			t.Errorf("%s and %s share fingerprint %s", n, prev, fp)
		}
		fps[fp] = n
		again, _ := Lookup(n)
		if again.Fingerprint() != fp {
			t.Errorf("%s: fingerprint not stable across lookups", n)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	// The default policy wraps the seed prelude verbatim rather than
	// compiling from a declaration, so it has no JSON form to round-trip;
	// only declared policies travel as JSON.
	for _, n := range []string{ContextXSSName, SSRFName} {
		c, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: MarshalJSON: %v", n, err)
		}
		back, err := LoadJSON(n, data)
		if err != nil {
			t.Fatalf("%s: LoadJSON of own marshal: %v", n, err)
		}
		if back.Fingerprint() != c.Fingerprint() {
			t.Errorf("%s: round-trip changed fingerprint %s -> %s",
				n, c.Fingerprint(), back.Fingerprint())
		}
		if back.Name() != c.Name() {
			t.Errorf("%s: round-trip changed name to %q", n, back.Name())
		}
	}
}
