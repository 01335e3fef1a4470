package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// taintTree generates n taint-dense files, ten to a project, whose
// answers follow in closed form from their shape.
//
// Each file reads one or two tainted roots. A root passes through two to
// four conditionals whose then-arm appends a constant; half of them also
// have an else-arm that sanitizes the root. The root then reaches four to
// twelve sinks. In a quarter of the files every root is read through
// intval, so the file is safe. Otherwise:
//
//   - every sink of a root is a symptom, so a file's symptoms are its sinks;
//   - a sink stays tainted on exactly the paths that take the then-arm of
//     each of its root's sanitizing conditionals, and every other
//     conditional before it is free, so it has 2^(prior conditionals −
//     its root's sanitizing ones) counterexamples.
//
// At most eight conditionals precede any sink, so no sink has more than
// 256 counterexamples and none is cut off by the enumeration bound.
//
// The shapes, and so each project's cost, are part of the workload and the
// same for every seed: a sink's cost grows as 2^conditionals, so seeded
// shapes made some seeds and projects far dearer than others. The seed
// picks the rest: sources, sink kinds and constants.
func taintTree(n int, seed uint64) *tree {
	const filesPerProject = 10
	shape := rand.New(rand.NewPCG(0x7a17, 0))
	type root struct {
		sanitize []bool // per conditional: whether its else-arm sanitizes
		sinks    int
	}
	type fileShape struct {
		safe  bool
		roots []root
	}
	shapes := make([]fileShape, n)
	for i := range shapes {
		shapes[i].safe = shape.IntN(4) == 0
		for range 1 + shape.IntN(2) {
			var rs root
			for range 2 + shape.IntN(3) {
				rs.sanitize = append(rs.sanitize, shape.IntN(2) == 0)
			}
			rs.sinks = 4 + shape.IntN(9)
			shapes[i].roots = append(shapes[i].roots, rs)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x7a17))

	t := &tree{groups: -1}
	for i, fs := range shapes {
		var b strings.Builder
		b.WriteString("<?php\n")
		want := answer{unsafe: !fs.safe}
		conds := 0
		for ri, rs := range fs.roots {
			read := fmt.Sprintf("$%s['f%d_%d']", []string{"_GET", "_POST", "_COOKIE"}[rng.IntN(3)], i, ri)
			if fs.safe {
				read = "intval(" + read + ")"
			}
			fmt.Fprintf(&b, "$r%d = %s;\n", ri, read)
			t.statements++
			sanitizing := 0
			for k, sanitize := range rs.sanitize {
				fmt.Fprintf(&b, "if ($c%d_%d == %d) {\n    $r%d = $r%d . '-%d';\n}", ri, k, rng.IntN(100), ri, ri, k)
				t.statements += 2
				if sanitize {
					fmt.Fprintf(&b, " else {\n    $r%d = htmlspecialchars($r%d);\n}", ri, ri)
					t.statements++
					sanitizing++
				}
				b.WriteString("\n")
			}
			conds += len(rs.sanitize)
			for k := 0; k < rs.sinks; k++ {
				switch rng.IntN(3) {
				case 0:
					fmt.Fprintf(&b, "echo $r%d;\n", ri)
				case 1:
					fmt.Fprintf(&b, "echo '<p>' . $r%d . '</p>';\n", ri)
				default:
					fmt.Fprintf(&b, "mysql_query(\"SELECT v FROM t%d WHERE k='\" . $r%d . \"'\");\n", k, ri)
				}
			}
			t.statements += rs.sinks
			if !fs.safe {
				want.symptoms += rs.sinks
				want.cexs += rs.sinks << (conds - sanitizing)
			}
		}
		b.WriteString("?>\n")
		t.files = append(t.files, genFile{rel: fmt.Sprintf("d%03d/f%04d.php", i/filesPerProject, i), src: []byte(b.String()), want: want})
		t.symptoms += want.symptoms
	}
	return t
}
