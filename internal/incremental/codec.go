package incremental

// This file is the graph's codec: the payload of one dependency-graph
// blob in the result store. The layout is compact binary like the result
// envelope's, every integer a varint:
//
//	schema
//	string table: count, total bytes, the bytes, each string's length
//	dir, config
//	files: count, then for each file in path order: path, size, mtime,
//	  hash, result key, deps (count, paths), misses (count, paths)
//	deps: count, then for each include in path order: path, size,
//	  mtime, hash
//
// Strings are references into the table, which holds each distinct
// string once, sorted, so path order is reference order. The decoder
// accepts only what Encode writes: a graph it accepts re-encodes to the
// same bytes.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Encode serializes the graph; callers frame it through the store's
// crash-safe blob format.
func (g *Graph) Encode() []byte {
	strs := []string{g.Dir, g.Config}
	files := make([]string, 0, len(g.Files))
	for path, node := range g.Files {
		files = append(files, path)
		strs = append(strs, path, node.Hash, node.ResultKey)
		strs = append(strs, node.Deps...)
		strs = append(strs, node.Misses...)
	}
	deps := make([]string, 0, len(g.Deps))
	for path, meta := range g.Deps {
		deps = append(deps, path)
		strs = append(strs, path, meta.Hash)
	}
	slices.Sort(files)
	slices.Sort(deps)
	slices.Sort(strs)
	e := graphEncoder{strs: slices.Compact(strs)}

	size := 0
	for _, s := range e.strs {
		size += len(s)
	}
	e.uint(Schema)
	e.uint(len(e.strs))
	e.uint(size)
	for _, s := range e.strs {
		e.buf = append(e.buf, s...)
	}
	for _, s := range e.strs {
		e.uint(len(s))
	}
	e.str(g.Dir)
	e.str(g.Config)
	e.uint(len(files))
	for _, path := range files {
		node := g.Files[path]
		e.str(path)
		e.int(node.Size)
		e.int(node.MTimeNS)
		e.str(node.Hash)
		e.str(node.ResultKey)
		e.list(node.Deps)
		e.list(node.Misses)
	}
	e.uint(len(deps))
	for _, path := range deps {
		meta := g.Deps[path]
		e.str(path)
		e.int(meta.Size)
		e.int(meta.MTimeNS)
		e.str(meta.Hash)
	}
	return e.buf
}

// graphEncoder appends a graph's payload over its sorted string table.
type graphEncoder struct {
	buf  []byte
	strs []string
}

func (e *graphEncoder) uint(n int) { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }

func (e *graphEncoder) int(n int64) { e.buf = binary.AppendVarint(e.buf, n) }

func (e *graphEncoder) str(s string) {
	i, _ := slices.BinarySearch(e.strs, s)
	e.uint(i)
}

func (e *graphEncoder) list(l []string) {
	e.uint(len(l))
	for _, s := range l {
		e.str(s)
	}
}

// Decode deserializes a graph payload and validates it against the
// expected schema, root, and config fingerprint. Any mismatch or decode
// failure returns an error — the caller degrades to a full run. It
// rejects a truncated payload, trailing bytes, a string table that is
// not sorted, holds a string twice or holds one nothing references, and
// files or includes out of path order.
func Decode(payload []byte, dir, config string) (*Graph, error) {
	d := graphDecoder{buf: payload}
	if schema := d.uint(); schema != Schema {
		return nil, fmt.Errorf("incremental: graph schema %d, want %d", schema, Schema)
	}
	d.table()
	g := &Graph{Dir: d.str(), Config: d.str()}
	if d.bad {
		return nil, fmt.Errorf("incremental: malformed graph")
	}
	if g.Dir != dir || g.Config != config {
		return nil, fmt.Errorf("incremental: graph is for %s/%s", g.Dir, g.Config)
	}
	nodes := make([]FileNode, d.count())
	g.Files = make(map[string]*FileNode, len(nodes))
	prev := -1
	for i := range nodes {
		path := d.key(&prev)
		node := &nodes[i]
		node.Size, node.MTimeNS = d.int(), d.int()
		node.Hash, node.ResultKey = d.str(), d.str()
		node.Deps, node.Misses = d.list(), d.list()
		g.Files[path] = node
	}
	metas := make([]DepMeta, d.count())
	g.Deps = make(map[string]*DepMeta, len(metas))
	prev = -1
	for i := range metas {
		path := d.key(&prev)
		metas[i] = DepMeta{Size: d.int(), MTimeNS: d.int(), Hash: d.str()}
		g.Deps[path] = &metas[i]
	}
	if d.bad || len(d.buf) > 0 || slices.Contains(d.used, false) {
		return nil, fmt.Errorf("incremental: malformed graph")
	}
	return g, nil
}

// graphDecoder reads a graph payload front to back. The first malformed
// read sets bad; every later read returns a zero value.
type graphDecoder struct {
	buf  []byte
	strs []string
	used []bool // which strings a reference has named
	bad  bool
}

// uint reads an unsigned varint no larger than math.MaxInt32.
func (d *graphDecoder) uint() int {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || v > math.MaxInt32 {
		d.bad = true
		return 0
	}
	d.buf = d.buf[n:]
	return int(v)
}

// int reads a signed varint.
func (d *graphDecoder) int() int64 {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads the length of a list whose every entry takes at least one
// byte, so it can be no larger than the bytes left.
func (d *graphDecoder) count() int {
	n := d.uint()
	if n > len(d.buf) {
		d.bad = true
		return 0
	}
	return n
}

// table reads the string table: its bytes become one string, which
// every entry slices. Entries must be sorted and distinct.
func (d *graphDecoder) table() {
	n := d.count()
	size := d.count()
	if d.bad {
		return
	}
	all := string(d.buf[:size])
	d.buf = d.buf[size:]
	if n > len(d.buf) {
		d.bad = true
		return
	}
	d.strs = make([]string, n)
	d.used = make([]bool, n)
	off := 0
	for i := range d.strs {
		l := d.uint()
		if l > size-off {
			d.bad = true
			return
		}
		d.strs[i] = all[off : off+l]
		off += l
		if i > 0 && d.strs[i] <= d.strs[i-1] {
			d.bad = true
			return
		}
	}
	if off != size {
		d.bad = true
	}
}

// ref reads a reference into the string table, or -1 on a bad read.
func (d *graphDecoder) ref() int {
	i := d.uint()
	if d.bad || i >= len(d.strs) {
		d.bad = true
		return -1
	}
	d.used[i] = true
	return i
}

func (d *graphDecoder) str() string {
	if i := d.ref(); i >= 0 {
		return d.strs[i]
	}
	return ""
}

// key reads a map key, which must sort after the previous one (*prev,
// a table index).
func (d *graphDecoder) key(prev *int) string {
	i := d.ref()
	if i <= *prev {
		d.bad = true
		return ""
	}
	*prev = i
	return d.strs[i]
}

func (d *graphDecoder) list() []string {
	n := d.count()
	if n == 0 {
		return nil
	}
	l := make([]string, n)
	for i := range l {
		l[i] = d.str()
	}
	return l
}
