// Package runtime implements a taint-tracking interpreter for the PHP
// subset. It substitutes for a real PHP runtime in this reproduction (see
// DESIGN.md): tests and examples execute original and patched programs and
// observe directly whether tainted data reaches a sensitive output channel
// — the behaviour WebSSARI's runtime guards must prevent.
//
// Values carry a taint bit. Data placed in the superglobals (or returned
// by the fake database) starts tainted; string operations propagate taint;
// sanitization routines (htmlspecialchars, the websafe runtime guard, …)
// clear it. Sinks (echo, mysql_query, exec, …) record every value they
// receive together with its taint, forming the observable event log.
package runtime

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates PHP value kinds.
type Kind int

// Value kinds.
const (
	KNull Kind = iota + 1
	KBool
	KNum
	KString
	KArray
	KResource // fake database result handles
)

// Value is a PHP runtime value with a taint bit. Arrays hold pointers so
// element updates are visible through aliases, approximating PHP
// copy-on-write closely enough for the subset.
type Value struct {
	Kind  Kind
	Bool  bool
	Num   float64
	Str   string
	Keys  []string // array key order
	Elems map[string]*Value
	Res   *Result // resource payload
	Taint bool
}

// Result is a fake database result handle: a queue of rows.
type Result struct {
	Rows []*Value // each row is an array value
	next int
}

// Null returns the null value.
func Null() *Value { return &Value{Kind: KNull} }

// BoolVal returns a boolean value.
func BoolVal(b bool) *Value { return &Value{Kind: KBool, Bool: b} }

// Num returns a numeric value.
func Num(n float64) *Value { return &Value{Kind: KNum, Num: n} }

// Clean returns an untainted string.
func Clean(s string) *Value { return &Value{Kind: KString, Str: s} }

// Tainted returns a tainted string — data as it arrives from an untrusted
// channel.
func Tainted(s string) *Value { return &Value{Kind: KString, Str: s, Taint: true} }

// Array returns an empty array value.
func Array() *Value {
	return &Value{Kind: KArray, Elems: make(map[string]*Value)}
}

// Set stores an element, preserving insertion order for iteration.
func (v *Value) Set(key string, elem *Value) {
	if v.Elems == nil {
		v.Elems = make(map[string]*Value)
		v.Kind = KArray
	}
	if _, ok := v.Elems[key]; !ok {
		v.Keys = append(v.Keys, key)
	}
	v.Elems[key] = elem
}

// Get fetches an element (null when absent).
func (v *Value) Get(key string) *Value {
	if v.Kind == KArray {
		if e, ok := v.Elems[key]; ok {
			return e
		}
	}
	// Reading an element of a tainted scalar (our coarse model of
	// string offsets) yields tainted data.
	if v.Taint {
		return &Value{Kind: KString, Taint: true}
	}
	return Null()
}

// Append adds an element with the next integer key ($a[] = e).
func (v *Value) Append(elem *Value) {
	maxIdx := -1
	for _, k := range v.Keys {
		if n, err := strconv.Atoi(k); err == nil && n > maxIdx {
			maxIdx = n
		}
	}
	v.Set(strconv.Itoa(maxIdx+1), elem)
}

// Copy returns a deep copy (PHP assignment copies arrays).
func (v *Value) Copy() *Value {
	cp := *v
	if v.Kind == KArray {
		cp.Keys = append([]string(nil), v.Keys...)
		cp.Elems = make(map[string]*Value, len(v.Elems))
		for k, e := range v.Elems {
			cp.Elems[k] = e.Copy()
		}
	}
	return &cp
}

// AnyTaint reports whether the value or (recursively) any element is
// tainted.
func (v *Value) AnyTaint() bool {
	if v.Taint {
		return true
	}
	if v.Kind == KArray {
		for _, e := range v.Elems {
			if e.AnyTaint() {
				return true
			}
		}
	}
	return false
}

// String converts per PHP's string conversion rules (approximately).
func (v *Value) String() string {
	switch v.Kind {
	case KNull:
		return ""
	case KBool:
		if v.Bool {
			return "1"
		}
		return ""
	case KNum:
		if v.Num == float64(int64(v.Num)) {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KString:
		return v.Str
	case KArray:
		return "Array"
	case KResource:
		return "Resource"
	default:
		return ""
	}
}

// Number converts to float64 per PHP's loose numeric conversion.
func (v *Value) Number() float64 {
	switch v.Kind {
	case KBool:
		if v.Bool {
			return 1
		}
		return 0
	case KNum:
		return v.Num
	case KString:
		s := strings.TrimSpace(v.Str)
		end := 0
		for end < len(s) && (s[end] == '-' || s[end] == '+' || s[end] == '.' ||
			(s[end] >= '0' && s[end] <= '9') || s[end] == 'e' || s[end] == 'E') {
			end++
		}
		if n, err := strconv.ParseFloat(s[:end], 64); err == nil {
			return n
		}
		return 0
	default:
		return 0
	}
}

// Truthy converts to bool per PHP rules.
func (v *Value) Truthy() bool {
	switch v.Kind {
	case KNull:
		return false
	case KBool:
		return v.Bool
	case KNum:
		return v.Num != 0
	case KString:
		return v.Str != "" && v.Str != "0"
	case KArray:
		return len(v.Elems) > 0
	case KResource:
		return true
	default:
		return false
	}
}

// Event is one sink invocation observed during execution.
type Event struct {
	// Sink is the channel name (echo, mysql_query, exec, include, …).
	Sink string
	// Text is the string the sink received.
	Text string
	// Tainted reports whether unsanitized untrusted data reached the sink
	// — the security failure the runtime guards exist to prevent.
	Tainted bool
	// Line is the source line of the call.
	Line int
}

// String renders the event.
func (e Event) String() string {
	mark := "clean"
	if e.Tainted {
		mark = "TAINTED"
	}
	return fmt.Sprintf("%s@%d [%s]: %s", e.Sink, e.Line, mark, e.Text)
}

// htmlEscape mirrors PHP htmlspecialchars.
func htmlEscape(s string) string {
	r := strings.NewReplacer(
		"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&#039;",
	)
	return r.Replace(s)
}

// addSlashes mirrors PHP addslashes.
func addSlashes(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'', '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(s[i])
		case 0:
			b.WriteString(`\0`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// sortedKeys returns array keys in insertion order (stable for iteration).
func sortedKeys(v *Value) []string {
	if len(v.Keys) == len(v.Elems) {
		return v.Keys
	}
	keys := make([]string, 0, len(v.Elems))
	for k := range v.Elems {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
