package ai

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"webssari/internal/php/token"
)

// fmtViolationKey is the fmt-based formula the violation key was first
// written with; Key must reproduce its bytes exactly.
func fmtViolationKey(v Violation) string {
	ids := make([]int, 0, len(v.Branches))
	for id := range v.Branches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|", v.Assert.Site, v.Assert.Fn)
	for _, id := range ids {
		if v.Branches[id] {
			fmt.Fprintf(&b, "+%d", id)
		} else {
			fmt.Fprintf(&b, "-%d", id)
		}
	}
	return b.String()
}

func TestViolationKeyEquivalence(t *testing.T) {
	sites := []Site{
		{Pos: token.Pos{File: "dir/a.php", Line: 12, Col: 3, Offset: 200}},
		{Pos: token.Pos{Line: 7, Col: 1}},
		{},
	}
	branchSets := []map[int]bool{
		nil,
		{0: false},
		{9: true, 10: false},
		{8: false, 9: true, 10: true, 11: false},
		{99: true, 100: false, 101: true},
		{1: true, 10: true, 100: true},
	}
	for _, site := range sites {
		for _, br := range branchSets {
			v := Violation{Assert: &Assert{Fn: "mysql_query", Site: site}, Branches: br}
			if got, want := v.Key(), fmtViolationKey(v); got != want {
				t.Errorf("Key() = %q, fmt formula %q", got, want)
			}
		}
	}
}
