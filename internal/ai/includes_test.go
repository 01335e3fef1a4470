package ai

import (
	"errors"
	"reflect"
	"testing"
)

func TestIncludesMissSortedAndUnique(t *testing.T) {
	var s Includes
	for _, c := range []string{"b.php", "a.php", "c.php", "a.php", "b.php"} {
		s.Miss(c)
	}
	if want := []string{"a.php", "b.php", "c.php"}; !reflect.DeepEqual(s.Misses, want) {
		t.Fatalf("Misses = %v, want %v", s.Misses, want)
	}
}

func TestIncludesCurrent(t *testing.T) {
	files := map[string]string{"lib.php": "<?php $x = 1;"}
	load := func(path string) ([]byte, error) {
		if src, ok := files[path]; ok {
			return []byte(src), nil
		}
		return nil, errors.New("not found")
	}
	var s Includes
	s.Hit("lib.php", []byte(files["lib.php"]))
	s.Miss("opt.php")

	if !s.Current(load) {
		t.Fatal("fresh snapshot not current")
	}
	if s.Current(nil) {
		t.Error("non-empty snapshot current without a loader")
	}
	if !(Includes{}).Current(nil) {
		t.Error("empty snapshot not current without a loader")
	}
	files["lib.php"] = "<?php $x = 2;"
	if s.Current(load) {
		t.Error("edited include still current")
	}
	files["lib.php"] = "<?php $x = 1;"
	files["opt.php"] = ""
	if s.Current(load) {
		t.Error("appeared candidate still current")
	}
}
