// Package policy generalizes the hardcoded taint prelude into a
// declarative, pluggable security-policy subsystem. A Policy names a
// safety-type chain lattice and declares sources, sinks, sanitizers,
// output contexts, and repair guards over it; Compile turns the
// declaration into the prelude the flow filter consumes plus the
// context/variant/guard tables the rest of the pipeline queries.
//
// The paper's original trust environment — the two-point taint lattice
// with XSS/SQLi sinks — is one policy among several: the built-in
// "default" policy reproduces it byte-for-byte, while "xss-context"
// refines the lattice so the HTML output context (body vs. attribute
// vs. script) decides which sanitizer is adequate, and "ssrf" treats
// outbound request constructors (curl, file_get_contents, fopen) as the
// sensitive channels. Policies load from JSON (see LoadJSON), so new
// vulnerability classes are data, not code.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"webssari/internal/lattice"
	"webssari/internal/prelude"
)

// Policy is the declarative, JSON-serializable form of a security
// policy. All names are matched case-insensitively against PHP function
// names; lattice element names are case-sensitive.
type Policy struct {
	// Name identifies the policy; it is recorded in compile fingerprints
	// and travels with jobs over the wire.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Lattice lists the safety-type chain from bottom (most trusted) to
	// top (most dangerous). It must have at least two elements.
	Lattice []string `json:"lattice"`
	// Vars gives initial safety types of global variables (superglobals).
	Vars []Var `json:"vars,omitempty"`
	// Sources are untrusted input channels with their postcondition type.
	Sources []Source `json:"sources,omitempty"`
	// Sinks are sensitive output channels with their precondition bound.
	Sinks []Sink `json:"sinks,omitempty"`
	// Sanitizers are trust casts, optionally refined by constant
	// arguments (e.g. htmlspecialchars with ENT_QUOTES).
	Sanitizers []Sanitizer `json:"sanitizers,omitempty"`
	// Contexts declare output contexts for contextual sinks: when the
	// HTML state machine places a dynamic value in context Name, the sink
	// precondition bound becomes Bound and Guard names the preferred
	// repair routine.
	Contexts []Context `json:"contexts,omitempty"`
	// Guards are the repair routines the patcher may wrap fix points in,
	// in preference order; Type is the safety type of a guard's result.
	Guards []Guard `json:"guards,omitempty"`
}

// Var declares the initial safety type of a global variable (without the
// leading dollar sign).
type Var struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Source declares an untrusted input channel fi(X).
type Source struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Sink declares a sensitive output channel fo(X). Bound is the
// precondition level τr (arguments must satisfy t < τr); Args lists the
// 1-based checked argument positions (empty means all).
type Sink struct {
	Name  string `json:"name"`
	Bound string `json:"bound"`
	Args  []int  `json:"args,omitempty"`
	// Class labels the vulnerability class in reports (e.g.
	// "server-side request forgery (SSRF)"); empty falls back to the
	// classic by-sink-name classification.
	Class string `json:"class,omitempty"`
	// Contextual marks sinks whose bound depends on the surrounding HTML
	// output context (echo/print): the flow filter tracks the context
	// state machine across the sink's literal output and checks each
	// dynamic part against the bound of the context it lands in.
	Contextual bool `json:"contextual,omitempty"`
}

// Sanitizer declares a trust cast; Variants refine the result type when
// specific constant arguments appear at the call site.
type Sanitizer struct {
	Name     string    `json:"name"`
	Type     string    `json:"type"`
	Variants []Variant `json:"variants,omitempty"`
}

// Variant refines a sanitizer's result type when every constant in
// ArgConsts appears among the call's literal arguments — the mechanism
// behind distinguishing htmlspecialchars($x) from
// htmlspecialchars($x, ENT_QUOTES).
type Variant struct {
	ArgConsts []string `json:"arg_consts"`
	Type      string   `json:"type"`
}

// Context declares an output context of contextual sinks.
type Context struct {
	Name  string `json:"name"`
	Bound string `json:"bound"`
	// Guard is the context's preferred repair routine; it must also
	// appear in Policy.Guards.
	Guard string `json:"guard,omitempty"`
}

// Guard declares a repair routine the patcher may insert; Type is the
// safety type of the routine's result.
type Guard struct {
	Routine string `json:"routine"`
	Type    string `json:"type"`
}

// Compiled is a policy compiled against its lattice: the prelude the
// flow filter consumes plus lookup tables for contexts, sanitizer
// variants, sink classes, and guards.
type Compiled struct {
	decl *Policy
	pre  *prelude.Prelude
	lat  *lattice.Lattice

	sinks    map[string]Sink      // lowered name → declaration
	variants map[string][]variant // lowered name → compiled variants
	contexts map[string]compiledContext
	guards   []CompiledGuard

	fingerprint string
}

type variant struct {
	consts []string // lowered constant names, all required
	typ    lattice.Elem
}

type compiledContext struct {
	bound lattice.Elem
	guard string
}

// CompiledGuard is a repair routine with its resolved result type.
type CompiledGuard struct {
	Routine string
	Type    lattice.Elem
}

// Compile validates the declaration and builds the lookup tables. The
// returned Compiled owns a fresh prelude; callers may extend it (extra
// sinks, sanitizers) without affecting other compilations.
func (p *Policy) Compile() (*Compiled, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("policy: name is required")
	}
	if len(p.Lattice) < 2 {
		return nil, fmt.Errorf("policy %s: lattice needs at least two elements", p.Name)
	}
	seen := make(map[string]bool, len(p.Lattice))
	for _, n := range p.Lattice {
		if n == "" {
			return nil, fmt.Errorf("policy %s: empty lattice element name", p.Name)
		}
		if seen[n] {
			return nil, fmt.Errorf("policy %s: duplicate lattice element %q", p.Name, n)
		}
		seen[n] = true
	}
	lat, err := lattice.Chain(p.Lattice...)
	if err != nil {
		return nil, fmt.Errorf("policy %s: %w", p.Name, err)
	}
	elem := func(kind, owner, name string) (lattice.Elem, error) {
		e, ok := lat.Lookup(name)
		if !ok {
			return 0, fmt.Errorf("policy %s: %s %s references unknown lattice element %q",
				p.Name, kind, owner, name)
		}
		return e, nil
	}

	pre := prelude.New(lat)
	c := &Compiled{
		decl:     p,
		pre:      pre,
		lat:      lat,
		sinks:    make(map[string]Sink),
		variants: make(map[string][]variant),
		contexts: make(map[string]compiledContext),
	}
	for _, v := range p.Vars {
		t, err := elem("var", v.Name, v.Type)
		if err != nil {
			return nil, err
		}
		pre.SetVarType(v.Name, t)
	}
	for _, s := range p.Sources {
		t, err := elem("source", s.Name, s.Type)
		if err != nil {
			return nil, err
		}
		pre.AddSource(s.Name, t)
	}
	for _, s := range p.Sinks {
		b, err := elem("sink", s.Name, s.Bound)
		if err != nil {
			return nil, err
		}
		for _, a := range s.Args {
			if a < 1 {
				return nil, fmt.Errorf("policy %s: sink %s has non-positive argument position %d",
					p.Name, s.Name, a)
			}
		}
		pre.AddSink(s.Name, b, s.Args...)
		c.sinks[lower(s.Name)] = s
	}
	for _, s := range p.Sanitizers {
		t, err := elem("sanitizer", s.Name, s.Type)
		if err != nil {
			return nil, err
		}
		pre.AddSanitizer(s.Name, t)
		for _, v := range s.Variants {
			if len(v.ArgConsts) == 0 {
				return nil, fmt.Errorf("policy %s: sanitizer %s has a variant without arg_consts",
					p.Name, s.Name)
			}
			vt, err := elem("sanitizer variant", s.Name, v.Type)
			if err != nil {
				return nil, err
			}
			consts := make([]string, len(v.ArgConsts))
			for i, cn := range v.ArgConsts {
				consts[i] = lower(cn)
			}
			c.variants[lower(s.Name)] = append(c.variants[lower(s.Name)],
				variant{consts: consts, typ: vt})
		}
	}
	guardTypes := make(map[string]bool, len(p.Guards))
	for _, g := range p.Guards {
		if g.Routine == "" {
			return nil, fmt.Errorf("policy %s: guard with empty routine name", p.Name)
		}
		t, err := elem("guard", g.Routine, g.Type)
		if err != nil {
			return nil, err
		}
		c.guards = append(c.guards, CompiledGuard{Routine: g.Routine, Type: t})
		guardTypes[g.Routine] = true
	}
	for _, ctx := range p.Contexts {
		if ctx.Name == "" {
			return nil, fmt.Errorf("policy %s: context with empty name", p.Name)
		}
		b, err := elem("context", ctx.Name, ctx.Bound)
		if err != nil {
			return nil, err
		}
		if ctx.Guard != "" && !guardTypes[ctx.Guard] {
			return nil, fmt.Errorf("policy %s: context %s names undeclared guard %q",
				p.Name, ctx.Name, ctx.Guard)
		}
		if _, dup := c.contexts[ctx.Name]; dup {
			return nil, fmt.Errorf("policy %s: duplicate context %q", p.Name, ctx.Name)
		}
		c.contexts[ctx.Name] = compiledContext{bound: b, guard: ctx.Guard}
	}
	c.fingerprint = c.computeFingerprint()
	return c, nil
}

// wrapPrelude builds a Compiled directly around an existing prelude,
// with no contexts or variants. It is how the built-in default policy
// reuses the seed prelude verbatim (guaranteeing byte-identical
// behavior), and how a nil-policy run is represented internally.
func wrapPrelude(name, description string, pre *prelude.Prelude, guards []Guard) *Compiled {
	c := &Compiled{
		decl: &Policy{Name: name, Description: description},
		pre:  pre,
		lat:  pre.Lattice(),

		sinks:    map[string]Sink{},
		variants: map[string][]variant{},
		contexts: map[string]compiledContext{},
	}
	for _, g := range guards {
		if t, ok := c.lat.Lookup(g.Type); ok {
			c.guards = append(c.guards, CompiledGuard{Routine: g.Routine, Type: t})
		}
	}
	c.fingerprint = c.computeFingerprint()
	return c
}

// Name returns the policy's name.
func (c *Compiled) Name() string { return c.decl.Name }

// Prelude returns the trust environment the policy compiled to. The
// prelude is owned by this Compiled; mutating it is allowed (the CLI's
// -sink/-sanitizer flags layer on top of a policy).
func (c *Compiled) Prelude() *prelude.Prelude { return c.pre }

// SinkClass returns the declared vulnerability class of a sink, or ""
// when the policy declares none (callers then fall back to the classic
// by-name classification).
func (c *Compiled) SinkClass(fn string) string {
	return c.sinks[lower(fn)].Class
}

// Contextual reports whether a sink's bound depends on the HTML output
// context.
func (c *Compiled) Contextual(fn string) bool {
	return len(c.contexts) > 0 && c.sinks[lower(fn)].Contextual
}

// HasContexts reports whether the policy declares any output contexts.
func (c *Compiled) HasContexts() bool { return len(c.contexts) > 0 }

// ContextBound returns the precondition bound of an output context.
func (c *Compiled) ContextBound(name string) (lattice.Elem, bool) {
	ctx, ok := c.contexts[name]
	return ctx.bound, ok
}

// SanitizerType resolves a sanitizer call's result type given the
// lowered constant-argument names present at the call site: the first
// declared variant whose required constants all appear wins, otherwise
// the base type. ok is false when the name is not a sanitizer at all.
func (c *Compiled) SanitizerType(fn string, argConsts []string) (lattice.Elem, bool) {
	san, ok := c.pre.SanitizerFor(fn)
	if !ok {
		return 0, false
	}
	have := make(map[string]bool, len(argConsts))
	for _, a := range argConsts {
		have[lower(a)] = true
	}
	for _, v := range c.variants[lower(fn)] {
		matched := true
		for _, req := range v.consts {
			if !have[req] {
				matched = false
				break
			}
		}
		if matched {
			return v.typ, true
		}
	}
	return san.Type, true
}

// SelectGuard chooses the repair routine for a fix point that must
// silence violations with the given (context, bound) pairs: the first
// guard — preferring the violated contexts' declared guards, then the
// policy's guard list in order — whose result type satisfies every
// violated precondition (type < bound). ok is false when no declared
// guard is adequate.
func (c *Compiled) SelectGuard(violations []Violation) (string, bool) {
	adequate := func(t lattice.Elem) bool {
		for _, v := range violations {
			if !c.lat.Lt(t, v.Bound) {
				return false
			}
		}
		return len(violations) > 0
	}
	typeOf := make(map[string]lattice.Elem, len(c.guards))
	for _, g := range c.guards {
		typeOf[g.Routine] = g.Type
	}
	// Context-preferred guards first, in the order the contexts were
	// violated (deterministic: callers pass source order).
	for _, v := range violations {
		if v.Context == "" {
			continue
		}
		g := c.contexts[v.Context].guard
		if g == "" {
			continue
		}
		if t, ok := typeOf[g]; ok && adequate(t) {
			return g, true
		}
	}
	for _, g := range c.guards {
		if adequate(g.Type) {
			return g.Routine, true
		}
	}
	return "", false
}

// Violation is one violated sink precondition a guard must satisfy:
// the output context it occurred in ("" for non-contextual sinks) and
// the precondition bound.
type Violation struct {
	Context string
	Bound   lattice.Elem
}

// Fingerprint deterministically renders everything that shapes
// verdicts under this policy: its name, the full prelude fingerprint,
// and the context/variant/class/guard tables. Two compiled policies
// with equal fingerprints produce identical analyses for the same
// source; result stores key on it.
func (c *Compiled) Fingerprint() string { return c.fingerprint }

func (c *Compiled) computeFingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy:%s\n", c.decl.Name)
	b.WriteString(c.pre.Fingerprint())
	b.WriteString("\ncontexts:")
	for _, name := range sortedKeys(c.contexts) {
		ctx := c.contexts[name]
		fmt.Fprintf(&b, "%s=%d@%s;", name, ctx.bound, ctx.guard)
	}
	b.WriteString("\nvariants:")
	for _, name := range sortedKeys(c.variants) {
		for _, v := range c.variants[name] {
			fmt.Fprintf(&b, "%s[%s]=%d;", name, strings.Join(v.consts, "+"), v.typ)
		}
	}
	b.WriteString("\nclasses:")
	for _, name := range sortedKeys(c.sinks) {
		s := c.sinks[name]
		fmt.Fprintf(&b, "%s=%s,ctx=%t;", name, s.Class, s.Contextual)
	}
	b.WriteString("\nguards:")
	for _, g := range c.guards {
		fmt.Fprintf(&b, "%s=%d;", g.Routine, g.Type)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func lower(s string) string { return strings.ToLower(s) }
