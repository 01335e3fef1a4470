package webssari

// Internal test of the per-assertion profile's site rendering: it needs
// the unexported siteString, so it lives inside the package.

import (
	"fmt"
	"strings"
	"testing"

	"webssari/internal/php/token"
)

// TestAssertProfileSite checks siteString against the fmt formula the
// profile's Site was first written with, including the leading ':' of
// a site without a file name and a file name longer than the stack
// buffer, and that a verified file's profile carries it.
func TestAssertProfileSite(t *testing.T) {
	for _, pos := range []token.Pos{
		{File: "dir/a.php", Line: 12, Col: 3, Offset: 200},
		{Line: 7, Col: 1},
		{},
		{File: strings.Repeat("long/", 40) + "b.php", Line: 100000, Col: 99},
	} {
		if got, want := siteString(pos), fmt.Sprintf("%s:%d:%d", pos.File, pos.Line, pos.Col); got != want {
			t.Errorf("siteString(%+v) = %q, want %q", pos, got, want)
		}
	}

	for _, name := range []string{"site.php", ""} {
		rep, err := Verify([]byte("<?php\necho $_GET['x'];"), name)
		if err != nil {
			t.Fatal(err)
		}
		as := rep.Profile.Assertions
		if len(as) != 1 || as[0].Site != name+":2:1" {
			t.Errorf("file %q: assertion profiles %+v, want one at %q", name, as, name+":2:1")
		}
	}
}
