package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Fingerprints are stable, position-independent SHA-256 digests of IR
// instructions: two instructions fingerprint equally exactly when their
// names, operators, literals, and shapes match, regardless of where they
// sit in the file. The textual IR (Unit.String, -dump-ir) prints one per
// instruction.

// fingerprintLen is the hex length of rendered fingerprints.
const fingerprintLen = 16

func hashHex(h hash.Hash) string {
	return hex.EncodeToString(h.Sum(nil))[:fingerprintLen]
}

// Fingerprint implements Instr.
func (i *Eval) Fingerprint() string       { return instrFP(i) }
func (i *Echo) Fingerprint() string       { return instrFP(i) }
func (i *Nop) Fingerprint() string        { return instrFP(i) }
func (i *Branch) Fingerprint() string     { return instrFP(i) }
func (i *Loop) Fingerprint() string       { return instrFP(i) }
func (i *Foreach) Fingerprint() string    { return instrFP(i) }
func (i *Switch) Fingerprint() string     { return instrFP(i) }
func (i *Return) Fingerprint() string     { return instrFP(i) }
func (i *Global) Fingerprint() string     { return instrFP(i) }
func (i *StaticDecl) Fingerprint() string { return instrFP(i) }
func (i *Unset) Fingerprint() string      { return instrFP(i) }

func instrFP(in Instr) string {
	w := newCanon()
	w.instr(in)
	return hashHex(w.h)
}

// canon serializes IR structure into a hash, excluding all positions. The
// encoding is injective: every node writes a distinct tag, strings are
// length-prefixed, and child lists are count-prefixed.
type canon struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64]byte
}

func newCanon() *canon { return &canon{h: sha256.New()} }

func (w *canon) tag(t byte) { w.h.Write([]byte{t}) }

func (w *canon) num(n int) {
	k := binary.PutVarint(w.buf[:], int64(n))
	w.h.Write(w.buf[:k])
}

func (w *canon) str(s string) {
	w.num(len(s))
	w.h.Write([]byte(s))
}

func (w *canon) bool(v bool) {
	if v {
		w.tag(1)
	} else {
		w.tag(0)
	}
}

func (w *canon) block(b Block) {
	w.num(len(b))
	for _, in := range b {
		w.instr(in)
	}
}

func (w *canon) exprs(list []Expr) {
	w.num(len(list))
	for _, e := range list {
		w.expr(e)
	}
}

func (w *canon) fn(f *Func) {
	w.tag('F')
	w.str(f.Name)
	w.str(f.Class)
	w.bool(f.Method)
	w.bool(f.Nested)
	w.bool(f.Closure)
	w.num(len(f.Params))
	for _, p := range f.Params {
		w.str(p.Name)
		w.bool(p.ByRef)
		w.expr(p.Default)
	}
	w.num(len(f.Uses))
	for _, u := range f.Uses {
		w.str(u.Name)
		w.bool(u.ByRef)
	}
	w.block(f.Body)
}

func (w *canon) instr(in Instr) {
	switch in := in.(type) {
	case nil:
		w.tag(0)
	case *Eval:
		w.tag('e')
		w.expr(in.X)
	case *Echo:
		w.tag('o')
		w.exprs(in.Args)
	case *Nop:
		w.tag('n')
		w.str(in.Kind)
		// Inline-HTML text is semantic under context-sensitive policies
		// (it drives the output-context machine), so it fingerprints.
		w.str(in.Text)
	case *Branch:
		w.tag('b')
		w.bool(in.Elseif)
		w.expr(in.Cond)
		w.block(in.Then)
		w.block(in.Else)
	case *Loop:
		w.tag('l')
		w.num(int(in.Kind))
		w.exprs(in.Init)
		w.exprs(in.Cond)
		w.exprs(in.Post)
		w.block(in.Body)
	case *Foreach:
		w.tag('f')
		w.expr(in.Subject)
		w.expr(in.Key)
		w.expr(in.Val)
		w.bool(in.ByRef)
		w.block(in.Body)
	case *Switch:
		w.tag('s')
		w.expr(in.Subject)
		w.num(len(in.Cases))
		for _, c := range in.Cases {
			w.expr(c.Match)
			w.block(c.Body)
		}
	case *Return:
		w.tag('r')
		w.expr(in.X)
	case *Global:
		w.tag('g')
		w.num(len(in.Names))
		for _, n := range in.Names {
			w.str(n)
		}
	case *StaticDecl:
		w.tag('t')
		w.num(len(in.Vars))
		for _, v := range in.Vars {
			w.str(v.Name)
			w.expr(v.Init)
		}
	case *Unset:
		w.tag('u')
		w.exprs(in.Args)
	}
}

func (w *canon) expr(e Expr) {
	switch e := e.(type) {
	case nil:
		w.tag(0)
	case *Lit:
		w.tag('L')
		w.num(int(e.Kind))
		w.str(e.Text)
	case *Str:
		w.tag('S')
		w.str(e.Value)
	case *Interp:
		w.tag('I')
		w.exprs(e.Parts)
	case *Array:
		w.tag('A')
		w.num(len(e.Items))
		for _, it := range e.Items {
			w.expr(it.Key)
			w.expr(it.Val)
		}
	case *Var:
		w.tag('V')
		w.str(e.Name)
	case *VarVar:
		w.tag('W')
		w.expr(e.Inner)
	case *Index:
		w.tag('X')
		w.expr(e.Arr)
		w.expr(e.Key)
	case *Prop:
		w.tag('P')
		w.expr(e.Obj)
		w.str(e.Name)
	case *Cast:
		w.tag('C')
		w.str(e.To)
		w.expr(e.X)
	case *Unary:
		w.tag('U')
		w.str(e.Op)
		w.bool(e.Postfix)
		w.expr(e.X)
	case *Concat:
		w.tag('.')
		w.expr(e.L)
		w.expr(e.R)
	case *Bin:
		w.tag('B')
		w.str(e.Op)
		w.expr(e.L)
		w.expr(e.R)
	case *Assign:
		w.tag('=')
		w.str(e.Op)
		w.bool(e.ByRef)
		w.expr(e.LHS)
		w.expr(e.RHS)
	case *Ternary:
		w.tag('?')
		w.expr(e.Cond)
		w.expr(e.Then)
		w.expr(e.Else)
	case *Call:
		w.tag('c')
		w.str(e.Name)
		w.expr(e.Func)
		w.exprs(e.Args)
	case *MethodCall:
		w.tag('m')
		w.expr(e.Obj)
		w.str(e.Name)
		w.exprs(e.Args)
	case *StaticCall:
		w.tag('q')
		w.str(e.Class)
		w.str(e.Name)
		w.exprs(e.Args)
	case *New:
		w.tag('N')
		w.str(e.Class)
		w.exprs(e.Args)
	case *Include:
		w.tag('i')
		w.str(e.Kind)
		w.expr(e.Path)
	case *Isset:
		w.tag('y')
		w.exprs(e.Args)
	case *Empty:
		w.tag('z')
		w.expr(e.Arg)
	case *List:
		w.tag('T')
		w.exprs(e.Targets)
	case *Exit:
		w.tag('x')
		w.expr(e.Arg)
	case *Closure:
		w.tag('k')
		w.fn(e.Fn)
	case *Opaque:
		w.tag('O')
		w.str(e.LegacyType)
	}
}
