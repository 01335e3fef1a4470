package ai

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
)

// Includes snapshots the include resolution a model was built under.
// Includes are spliced in at build time, so whoever reuses the model
// or a result derived from it (the result store) first checks that the
// snapshot is still Current: an edited include, or a previously missing
// candidate that has appeared, makes it stale.
// A snapshot is immutable once its Program is built; holders share it.
type Includes struct {
	// Hashes maps each statically resolved include spliced into the
	// model to the hex SHA-256 of the content that was read.
	Hashes map[string]string `json:"include_hashes,omitempty"`
	// Misses lists, sorted and without duplicates, the include
	// candidates that were probed and not readable: if one becomes
	// readable, resolution would pick a different file.
	Misses []string `json:"include_misses,omitempty"`
}

// Hit records a resolved include and the content that was read.
func (s *Includes) Hit(path string, src []byte) {
	if s.Hashes == nil {
		s.Hashes = make(map[string]string)
	}
	s.Hashes[path] = contentHash(src)
}

// Miss records a probed-but-unreadable include candidate.
func (s *Includes) Miss(cand string) {
	if i, found := slices.BinarySearch(s.Misses, cand); !found {
		s.Misses = slices.Insert(s.Misses, i, cand)
	}
}

// Current reports whether the snapshot still matches what load reads:
// every resolved include hashes the same and every missed candidate is
// still unreadable. A nil load resolves nothing, so under it only an
// empty snapshot is current.
func (s Includes) Current(load func(string) ([]byte, error)) bool {
	if len(s.Hashes) == 0 && len(s.Misses) == 0 {
		return true
	}
	if load == nil {
		return false
	}
	for path, want := range s.Hashes {
		data, err := load(path)
		if err != nil || contentHash(data) != want {
			return false
		}
	}
	for _, cand := range s.Misses {
		if _, err := load(cand); err == nil {
			return false
		}
	}
	return true
}

func contentHash(src []byte) string {
	sum := sha256.Sum256(src)
	return hex.EncodeToString(sum[:])
}
