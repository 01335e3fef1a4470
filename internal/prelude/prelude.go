// Package prelude defines the trust environment of a verification run: the
// safety-type lattice, untrusted input channels (UIC) with their
// postconditions, sensitive output channels (SOC) with their preconditions,
// sanitization routines, and the initial safety types of global variables
// (PHP superglobals).
//
// The paper stores pre- and postcondition definitions "in two prelude files
// that are loaded during startup"; this package provides the same
// mechanism: a text format (see Parse) plus a built-in default prelude for
// PHP taint analysis.
package prelude

import (
	"fmt"
	"sort"
	"strings"

	"webssari/internal/lattice"
)

// Source is an untrusted input channel fi(X): calling it yields data of the
// given safety type (its postcondition).
type Source struct {
	Name string
	// Type is the safety level of data retrieved through this channel.
	Type lattice.Elem
}

// Sink is a sensitive output channel fo(X): its precondition requires every
// checked argument's type to be strictly lower than Bound.
type Sink struct {
	Name string
	// Bound is the precondition's required level τr: arguments must satisfy
	// t < τr. For the two-point taint lattice, Bound = tainted means
	// "arguments must be untainted".
	Bound lattice.Elem
	// Args lists the 1-based argument positions the precondition covers;
	// nil means all arguments.
	Args []int
}

// Checks reports whether the precondition covers 1-based argument position i.
func (s Sink) Checks(i int) bool {
	if len(s.Args) == 0 {
		return true
	}
	for _, a := range s.Args {
		if a == i {
			return true
		}
	}
	return false
}

// Sanitizer is a trust cast: its return value has the given safety type
// regardless of argument types (e.g. htmlspecialchars yields untainted
// data in the taint lattice).
type Sanitizer struct {
	Name string
	Type lattice.Elem
}

// Prelude is the complete trust environment. All lookups are by lower-cased
// name (PHP identifiers are case-insensitive); variable names are
// case-sensitive as in PHP.
type Prelude struct {
	lat        *lattice.Lattice
	sources    map[string]Source
	sinks      map[string]Sink
	sanitizers map[string]Sanitizer
	varTypes   map[string]lattice.Elem
}

// New returns an empty prelude over the given lattice.
func New(lat *lattice.Lattice) *Prelude {
	return &Prelude{
		lat:        lat,
		sources:    make(map[string]Source),
		sinks:      make(map[string]Sink),
		sanitizers: make(map[string]Sanitizer),
		varTypes:   make(map[string]lattice.Elem),
	}
}

// Lattice returns the safety-type lattice the prelude is defined over.
func (p *Prelude) Lattice() *lattice.Lattice { return p.lat }

// AddSource registers an untrusted input channel.
func (p *Prelude) AddSource(name string, typ lattice.Elem) {
	p.sources[lowerASCII(name)] = Source{Name: name, Type: typ}
}

// AddSink registers a sensitive output channel. args lists the 1-based
// checked argument positions (empty = all).
func (p *Prelude) AddSink(name string, bound lattice.Elem, args ...int) {
	p.sinks[lowerASCII(name)] = Sink{Name: name, Bound: bound, Args: args}
}

// AddSanitizer registers a sanitization routine.
func (p *Prelude) AddSanitizer(name string, typ lattice.Elem) {
	p.sanitizers[lowerASCII(name)] = Sanitizer{Name: name, Type: typ}
}

// SetVarType sets the initial safety type of a global variable (without the
// leading dollar sign, e.g. "_GET").
func (p *Prelude) SetVarType(name string, typ lattice.Elem) {
	p.varTypes[name] = typ
}

// SourceFor looks up a source by (case-insensitive) function name.
func (p *Prelude) SourceFor(name string) (Source, bool) {
	s, ok := p.sources[lowerASCII(name)]
	return s, ok
}

// SinkFor looks up a sink by (case-insensitive) function name.
func (p *Prelude) SinkFor(name string) (Sink, bool) {
	s, ok := p.sinks[lowerASCII(name)]
	return s, ok
}

// SanitizerFor looks up a sanitizer by (case-insensitive) function name.
func (p *Prelude) SanitizerFor(name string) (Sanitizer, bool) {
	s, ok := p.sanitizers[lowerASCII(name)]
	return s, ok
}

// VarType returns the initial safety type of a global variable, defaulting
// to ⊥ (fully trusted) for unknown names, as the paper's model does for
// program-created variables.
func (p *Prelude) VarType(name string) lattice.Elem {
	if t, ok := p.varTypes[name]; ok {
		return t
	}
	return p.lat.Bottom()
}

// Vars returns the names of all variables with explicit initial types.
func (p *Prelude) Vars() []string {
	out := make([]string, 0, len(p.varTypes))
	for name := range p.varTypes {
		out = append(out, name)
	}
	return out
}

// Sinks returns all registered sinks.
func (p *Prelude) Sinks() []Sink {
	out := make([]Sink, 0, len(p.sinks))
	for _, s := range p.sinks {
		out = append(out, s)
	}
	return out
}

// Sources returns all registered untrusted input channels.
func (p *Prelude) Sources() []Source {
	out := make([]Source, 0, len(p.sources))
	for _, s := range p.sources {
		out = append(out, s)
	}
	return out
}

// Sanitizers returns all registered sanitization routines.
func (p *Prelude) Sanitizers() []Sanitizer {
	out := make([]Sanitizer, 0, len(p.sanitizers))
	for _, s := range p.sanitizers {
		out = append(out, s)
	}
	return out
}

// Fingerprint returns a deterministic rendering of the whole trust
// environment — lattice structure, sources, sinks (with checked argument
// positions), sanitizers, and initial variable types — suitable as a
// cache key component: two preludes with the same fingerprint
// produce identical abstract interpretations for the same source.
func (p *Prelude) Fingerprint() string {
	var b strings.Builder
	b.WriteString("lat:")
	for _, e := range p.lat.Elems() {
		fmt.Fprintf(&b, "%d=%s,", e, p.lat.Name(e))
		for _, f := range p.lat.Elems() {
			if p.lat.Leq(e, f) {
				fmt.Fprintf(&b, "%d<=%d;", e, f)
			}
		}
	}
	section := func(label string, keys []string, render func(k string)) {
		sort.Strings(keys)
		b.WriteString("\n" + label + ":")
		for _, k := range keys {
			render(k)
		}
	}
	section("sources", mapKeys(p.sources), func(k string) {
		s := p.sources[k]
		fmt.Fprintf(&b, "%s=%d;", k, s.Type)
	})
	section("sinks", mapKeys(p.sinks), func(k string) {
		s := p.sinks[k]
		fmt.Fprintf(&b, "%s=%d@%v;", k, s.Bound, s.Args)
	})
	section("sanitizers", mapKeys(p.sanitizers), func(k string) {
		s := p.sanitizers[k]
		fmt.Fprintf(&b, "%s=%d;", k, s.Type)
	})
	section("vars", mapKeys(p.varTypes), func(k string) {
		fmt.Fprintf(&b, "%s=%d;", k, p.varTypes[k])
	})
	return b.String()
}

func mapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func lowerASCII(s string) string {
	hasUpper := false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			hasUpper = true
			break
		}
	}
	if !hasUpper {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}
