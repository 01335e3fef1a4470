package webssari_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOracles are the exported names under internal/ that only tests
// call, each kept on purpose as the reference a named test compares the
// production code against. Keys are "<package>.<name>"; a trailing "*"
// matches a name prefix.
var testOracles = map[string]string{
	"ai.ExhaustiveViolations":   "TestExhaustiveViolationsDedup and the flow tests' violations helper",
	"fixing.IsVertexCover":      "TestVertexCoverReductionQuick",
	"fixing.MinVertexCoverSize": "TestVertexCoverReduction",
	"fixing.ExactMinimalFix":    "TestFigure7MinimalFix and TestExactBeatsGreedyOnAdversarialInstance",
	"flow.BuildAST":             "TestDifferentialASTvsIR",
	"ast.Dump":                  "TestParseExprString and TestDumpAllNodes",
	"ast.DumpStmts":             "TestFigure1Parses and FuzzParse",
	"ast.Print*":                "TestPrintParseFixpoint and FuzzParse",
	"sat.BruteSolve":            "TestRandomAgainstBruteForce",
	"sat.BruteCountModels":      "TestEnumerationMatchesBruteCount",
	"runtime.SetGet":            "TestTaintedGetReachesEcho; production input waits on ROADMAP item 4",
	"runtime.SetPost":           "TestTaintThroughStringFunctions; production input waits on ROADMAP item 4",
	"runtime.SetCookie":         "TestListAssignAndExplode; production input waits on ROADMAP item 4",
}

// interfaceMethods satisfy standard-library interfaces that call them by
// name from outside the module, so no reference inside it is expected.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true,
}

// TestNoTestOnlyExports fails on any exported function or method declared
// in a non-test file under internal/ whose name no non-test Go file of the
// module or of bench/ mentions, other than in a function declaration.
// Such a name is production code that only tests call: delete it, or, if
// it is a test oracle, add it to testOracles with the test it serves. The
// match is by name alone, so a name used anywhere keeps every declaration
// of it.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	used := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := make(map[*ast.Ident]bool)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if fn.Name.IsExported() && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				decls = append(decls, decl{
					key: f.Name.Name + "." + fn.Name.Name,
					pos: fset.Position(fn.Pos()).String(),
				})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for _, d := range decls {
		_, name, _ := strings.Cut(d.key, ".")
		if used[name] || interfaceMethods[name] || isOracle(d.key) {
			continue
		}
		unused = append(unused, d.pos+": "+d.key)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it, or list it in testOracles with the test it serves", u)
	}
}

func isOracle(key string) bool {
	if _, ok := testOracles[key]; ok {
		return true
	}
	for k := range testOracles {
		if prefix, ok := strings.CutSuffix(k, "*"); ok && strings.HasPrefix(key, prefix) {
			return true
		}
	}
	return false
}
