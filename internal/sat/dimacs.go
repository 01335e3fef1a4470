package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CNF is a formula in conjunctive normal form, independent of any solver
// instance: the interchange representation between the Tseitin encoder, the
// solver, and DIMACS files.
type CNF struct {
	NumVars int
	Clauses [][]Lit
}

// AddClause appends a clause, growing NumVars as needed.
func (f *CNF) AddClause(lits ...Lit) {
	cl := append([]Lit(nil), lits...)
	for _, l := range cl {
		if l.Var() > f.NumVars {
			f.NumVars = l.Var()
		}
	}
	f.Clauses = append(f.Clauses, cl)
}

// NewVar allocates a fresh variable.
func (f *CNF) NewVar() int {
	f.NumVars++
	return f.NumVars
}

// LoadInto feeds the formula into a solver; it returns false if the solver
// detects trivial unsatisfiability while loading.
func (f *CNF) LoadInto(s *Solver) bool {
	for s.NumVars() < f.NumVars {
		s.NewVar()
	}
	for _, cl := range f.Clauses {
		if !s.AddClause(cl...) {
			return false
		}
	}
	return true
}

// WriteDIMACS writes the formula in DIMACS cnf format.
func (f *CNF) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)); err != nil {
		return err
	}
	for _, cl := range f.Clauses {
		for _, l := range cl {
			if _, err := bw.WriteString(strconv.Itoa(int(l))); err != nil {
				return err
			}
			if err := bw.WriteByte(' '); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseDIMACS reads a DIMACS cnf file. Comment lines (c ...) are skipped;
// the problem line is validated loosely (some generators emit inaccurate
// counts, which are tolerated).
func ParseDIMACS(r io.Reader) (*CNF, error) {
	f := &CNF{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var cur []Lit
	sawProblem := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("dimacs line %d: malformed problem line %q", lineNo, line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return nil, fmt.Errorf("dimacs line %d: bad variable count %q", lineNo, fields[2])
			}
			f.NumVars = nv
			sawProblem = true
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("dimacs line %d: bad literal %q", lineNo, tok)
			}
			if n == 0 {
				f.AddClause(cur...)
				cur = cur[:0]
				continue
			}
			cur = append(cur, Lit(n))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		f.AddClause(cur...)
	}
	if !sawProblem {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	return f, nil
}

// Eval evaluates the formula under a model indexed by variable.
func (f *CNF) Eval(model []bool) bool {
	for _, cl := range f.Clauses {
		sat := false
		for _, l := range cl {
			v := l.Var()
			if v < len(model) && model[v] != l.IsNeg() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}
