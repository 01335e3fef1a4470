// Package patch implements WebSSARI's automated patching: it inserts
// runtime guards — calls to a sanitization routine — at the fix points the
// counterexample analysis selected, producing "secured PHP" (Figure 9).
// Patches wrap the offending source expression in place, so the original
// formatting is preserved:
//
//	$iq = "SELECT * FROM groups WHERE sid=$sid";   // before
//	$iq = websafe("SELECT * FROM groups WHERE sid=$sid");  // after
//
// Sanitization routines live in the prelude; users may supply their own,
// as the paper describes.
package patch

import (
	"fmt"
	"sort"

	"webssari/internal/fixing"
)

// DefaultRoutine is the runtime guard wrapped around patched expressions.
// The default prelude registers it as a sanitizer, so re-verifying patched
// code proves the guards sufficient.
const DefaultRoutine = "websafe"

// insertion is one text splice.
type insertion struct {
	off  int
	text string
	// prio orders insertions at equal offsets: closing parentheses (0)
	// come before opening ones (1), so adjacent spans nest correctly.
	prio int
}

// Patcher accumulates fix points over (possibly) many files and applies
// them to source texts.
type Patcher struct {
	routine string
	// spans per file, deduplicated; the value is the guard routine for
	// that span ("" = the Patcher's default routine). Context-sensitive
	// policies schedule different guards for different spans — an
	// attribute-context echo needs an ENT_QUOTES escape where a body
	// echo does not.
	spans map[string]map[[2]int]string
}

// New returns a Patcher wrapping patched spans in the given routine
// (DefaultRoutine when empty).
func New(routine string) *Patcher {
	if routine == "" {
		routine = DefaultRoutine
	}
	return &Patcher{
		routine: routine,
		spans:   make(map[string]map[[2]int]string),
	}
}

// AddGuard schedules a fix point's span for patching with a specific
// guard routine ("" = the Patcher's default). A span scheduled twice
// keeps its first explicitly named guard.
func (p *Patcher) AddGuard(f *fixing.FixPoint, routine string) error {
	pos, end := f.Span()
	if !pos.IsValid() || end <= pos.Offset {
		return fmt.Errorf("patch: fix point %s has no patchable span", f.Describe())
	}
	file := pos.File
	if p.spans[file] == nil {
		p.spans[file] = make(map[[2]int]string)
	}
	span := [2]int{pos.Offset, end}
	if existing, ok := p.spans[file][span]; !ok || existing == "" {
		p.spans[file][span] = routine
	}
	return nil
}

// Apply patches one file's source text. Files without scheduled patches
// are returned unchanged.
func (p *Patcher) Apply(file string, src []byte) []byte {
	spans := p.spans[file]
	if len(spans) == 0 {
		return src
	}
	ins := make([]insertion, 0, 2*len(spans))
	for span, routine := range spans {
		start, end := span[0], span[1]
		if start < 0 || end > len(src) || start >= end {
			continue
		}
		if routine == "" {
			routine = p.routine
		}
		ins = append(ins, insertion{off: start, text: routine + "(", prio: 1})
		ins = append(ins, insertion{off: end, text: ")", prio: 0})
	}
	// Apply back to front so earlier offsets stay valid; at equal offsets,
	// closings before openings (higher prio applied first when splicing
	// backwards means it ends up later in the text... order carefully):
	// splicing from the end, an insertion applied later lands *before* one
	// applied earlier at the same offset. We want ")" to precede
	// "routine(" in the final text, so apply ")" after "routine(".
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].off != ins[j].off {
			return ins[i].off > ins[j].off
		}
		return ins[i].prio > ins[j].prio
	})
	out := append([]byte(nil), src...)
	for _, in := range ins {
		out = append(out[:in.off], append([]byte(in.text), out[in.off:]...)...)
	}
	return out
}

// PatchSourceGuards patches a single source text choosing each fix
// point's guard via routineFor (a "" result falls back to the default
// routine). Context-sensitive policies use this to wrap each fix point
// in the guard adequate for the contexts it repairs.
func PatchSourceGuards(file string, src []byte, fixes []*fixing.FixPoint, routine string, routineFor func(*fixing.FixPoint) string) ([]byte, []error) {
	p := New(routine)
	var errs []error
	for _, f := range fixes {
		if err := p.AddGuard(f, routineFor(f)); err != nil {
			errs = append(errs, err)
		}
	}
	return p.Apply(file, src), errs
}
