package webssari

// This file is the result envelope's codec: the payload of one
// result-store blob, a finished report plus what serving it needs, and
// the answer a cluster worker gives for a file. It is a compact binary
// encoding, decoded in one pass straight into the served *Report;
// DESIGN.md §10 describes the layout.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"slices"

	"webssari/internal/ai"
	"webssari/internal/report"
)

// resultSchema versions the envelope layout inside store blobs,
// independent of the store's own framing version. It is the payload's
// first varint; bump it when the layout or the Report shape changes
// incompatibly. Blobs of any other schema, including the JSON envelopes
// of schemas 1 and 2, read as a miss.
const resultSchema = 3

// maxEnvelopeSteps bounds the trace steps one envelope may expand to.
// Runs make the encoding compress: a few bytes can name a long stretch
// of the step table, so the decoder caps what a payload may ask it to
// allocate, and storePut does not persist a report it could not serve.
const maxEnvelopeSteps = 1 << 20

// Verdict codes. A stored report is complete, so its verdict is one of
// the first two. A report answered on the wire may also be incomplete,
// without findings or with them, and then its limits follow the code.
// Safe, Incomplete and Groups are derived, not encoded.
const (
	envelopeSafe = iota
	envelopeUnsafe
	envelopeIncomplete
	envelopeUnsafeIncomplete
)

// encodeEnvelope returns the envelope of a report, or nil if the
// envelope cannot hold it (more trace steps than the decoder accepts).
// The store's envelope (wire false) holds only complete reports and no
// profile; the wire's also holds an incomplete verdict and a trailing
// profile section. The layout, every integer a varint:
//
//	schema
//	string table: count, total bytes, the bytes, each string's length
//	name
//	include snapshot: hashes (path, hash; sorted by path), misses
//	step table: location, var, value
//	render records: finding, context, path
//	report: file, verdict code, limits (incomplete codes only),
//	  symptoms, total trace steps
//	findings: sink, class, location, group, trace as (start, length)
//	  runs of the step table
//	patches: location, var, description, findings
//	warnings
//	profile (wire only, optional): length, the profile's JSON
//
// Strings are references into the table, each distinct string stored
// once. Each distinct trace step is stored once, in the step table.
func encodeEnvelope(name string, rep *Report, wire bool) []byte {
	var verdict int
	switch {
	case rep.Verdict == VerdictSafe && !rep.Incomplete:
		verdict = envelopeSafe
	case rep.Verdict == VerdictUnsafe && !rep.Incomplete:
		verdict = envelopeUnsafe
	case !wire || !rep.Incomplete:
		return nil
	case rep.Verdict == VerdictIncomplete:
		verdict = envelopeIncomplete
	case rep.Verdict == VerdictUnsafe:
		verdict = envelopeUnsafeIncomplete
	default:
		return nil
	}
	inc := report.Includes(rep)
	e := envelopeEncoder{strs: make(map[string]int)}
	e.str(name)
	paths := make([]string, 0, len(inc.Hashes))
	for p := range inc.Hashes {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	e.uint(len(paths))
	for _, p := range paths {
		e.str(p)
		e.str(inc.Hashes[p])
	}
	e.uint(len(inc.Misses))
	for _, m := range inc.Misses {
		e.str(m)
	}

	// Intern the steps: ids holds every finding's trace as step table
	// indices, finding after finding.
	index := make(map[TraceStep]int)
	var steps []TraceStep
	var ids []int
	for _, f := range rep.Findings {
		for _, step := range f.Trace {
			id, ok := index[step]
			if !ok {
				id = len(steps)
				index[step] = id
				steps = append(steps, step)
			}
			ids = append(ids, id)
		}
	}
	if len(ids) > maxEnvelopeSteps {
		return nil
	}
	e.uint(len(steps))
	for _, s := range steps {
		e.loc(s.Location)
		e.str(s.Var)
		e.str(s.Value)
	}
	traces := report.Traces(rep)
	e.uint(len(traces))
	for _, t := range traces {
		e.uint(t.Finding)
		e.str(t.Context)
		e.str(t.Path)
	}

	e.str(rep.File)
	e.uint(verdict)
	if verdict >= envelopeIncomplete {
		e.uint(len(rep.Limits))
		for _, l := range rep.Limits {
			e.str(l)
		}
	}
	e.int(rep.Symptoms)
	e.uint(len(ids))
	e.uint(len(rep.Findings))
	for _, f := range rep.Findings {
		e.str(f.Sink)
		e.str(f.Class)
		e.loc(f.Location)
		e.int(f.Group)
		e.runs(ids[:len(f.Trace)])
		ids = ids[len(f.Trace):]
	}
	e.uint(len(rep.Patches))
	for _, p := range rep.Patches {
		e.loc(p.Location)
		e.str(p.Var)
		e.str(p.Description)
		e.int(p.Findings)
	}
	e.uint(len(rep.Warnings))
	for _, w := range rep.Warnings {
		e.str(w)
	}
	if wire && rep.Profile != nil {
		js, err := json.Marshal(rep.Profile)
		if err != nil {
			return nil
		}
		e.uint(len(js))
		e.body = append(e.body, js...)
	}

	size := 0
	for _, s := range e.table {
		size += len(s)
	}
	out := binary.AppendUvarint(nil, resultSchema)
	out = binary.AppendUvarint(out, uint64(len(e.table)))
	out = binary.AppendUvarint(out, uint64(size))
	for _, s := range e.table {
		out = append(out, s...)
	}
	for _, s := range e.table {
		out = binary.AppendUvarint(out, uint64(len(s)))
	}
	return append(out, e.body...)
}

// envelopeEncoder appends an envelope's body, interning its strings.
type envelopeEncoder struct {
	body  []byte
	strs  map[string]int
	table []string
}

func (e *envelopeEncoder) uint(n int) { e.body = binary.AppendUvarint(e.body, uint64(n)) }

func (e *envelopeEncoder) int(n int) { e.body = binary.AppendVarint(e.body, int64(n)) }

func (e *envelopeEncoder) str(s string) {
	id, ok := e.strs[s]
	if !ok {
		id = len(e.table)
		e.strs[s] = id
		e.table = append(e.table, s)
	}
	e.uint(id)
}

func (e *envelopeEncoder) loc(l Location) {
	e.str(l.File)
	e.int(l.Line)
	e.int(l.Col)
}

// runs writes a trace's step ids as a count of runs, then each run of
// consecutive ids as (start, length).
func (e *envelopeEncoder) runs(ids []int) {
	n := 0
	for i, id := range ids {
		if i == 0 || id != ids[i-1]+1 {
			n++
		}
	}
	e.uint(n)
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		e.uint(ids[i])
		e.uint(j - i)
		i = j
	}
}

// decodeEnvelope decodes an envelope into the report it serves, with
// the include snapshot it was built under attached. A stored report
// (wire false) is marked as a store hit; a wire report carries the
// profile of its trailing section, if any. It rejects a payload of
// another schema, a truncated one, a count larger than the bytes left,
// a string or run outside its table, trailing bytes, and a report no
// run produces: an unknown verdict code, an incomplete one without
// limits, a report that is not unsafe with findings or patches, or
// render records that do not list each finding once, group by group, in
// the counts the patches declare. The store's decoder also rejects what
// only the wire holds: an incomplete verdict and a profile section. A
// report is served whole or not at all.
func decodeEnvelope(payload []byte, wire bool) (*Report, bool) {
	d := envelopeDecoder{buf: payload, wire: wire}
	d.header()
	inc := d.includes()
	steps := d.steps()
	traces := d.traces()
	rep := d.report(steps)
	prof := &RunProfile{StoreHit: true}
	if wire {
		prof = d.profile()
	}
	if d.bad || len(d.buf) > 0 || !listed(rep, traces) {
		return nil, false
	}
	report.Attach(rep, traces, inc)
	rep.Profile = prof
	return rep, true
}

// EncodeResult returns rep's result envelope as a daemon answers a file
// job on the wire: the store's layout, which here may also hold an
// incomplete verdict with its limits, followed by rep's profile. It
// fails on a report the envelope cannot hold: one with more trace steps
// than the decoder accepts.
func EncodeResult(rep *Report) ([]byte, error) {
	payload := encodeEnvelope(rep.File, rep, true)
	if payload == nil {
		return nil, errors.New("webssari: the report does not fit a result envelope")
	}
	return payload, nil
}

// DecodeResult decodes a result envelope written by EncodeResult into
// the report it carries. The report renders its own text, carries its
// include snapshot for VerifyRemote, and has the profile of the run
// that produced it.
func DecodeResult(payload []byte) (*Report, error) {
	rep, ok := decodeEnvelope(payload, true)
	if !ok {
		return nil, errors.New("webssari: malformed result envelope")
	}
	return rep, nil
}

// envelopeDecoder reads an envelope front to back. The first malformed
// read sets bad; every later read returns a zero value.
type envelopeDecoder struct {
	buf  []byte
	strs []string
	wire bool
	bad  bool
}

// uint reads an unsigned varint no larger than math.MaxInt32, which no
// count, reference or index of a servable envelope exceeds.
func (d *envelopeDecoder) uint() int {
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
func (d *envelopeDecoder) int() int {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.buf = d.buf[n:]
	return int(v)
}

// count reads the length of a list whose every entry takes at least one
// byte, so it can be no larger than the bytes left.
func (d *envelopeDecoder) count() int {
	n := d.uint()
	if n > len(d.buf) {
		d.bad = true
		return 0
	}
	return n
}

// str reads a reference into the string table.
func (d *envelopeDecoder) str() string {
	i := d.uint()
	if i >= len(d.strs) {
		d.bad = true
		return ""
	}
	return d.strs[i]
}

func (d *envelopeDecoder) loc() Location {
	return Location{File: d.str(), Line: d.int(), Col: d.int()}
}

// header reads the schema, the string table (its bytes become one
// string, which every table entry slices) and the name.
func (d *envelopeDecoder) header() {
	if d.uint() != resultSchema {
		d.bad = true
		return
	}
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
	off := 0
	for i := range d.strs {
		l := d.uint()
		if l > size-off {
			d.bad = true
			return
		}
		d.strs[i] = all[off : off+l]
		off += l
	}
	if off != size {
		d.bad = true
	}
	d.str() // the name: the key already covers it
}

func (d *envelopeDecoder) includes() ai.Includes {
	var inc ai.Includes
	if n := d.count(); n > 0 {
		inc.Hashes = make(map[string]string, n)
		for range n {
			p := d.str()
			inc.Hashes[p] = d.str()
		}
	}
	if n := d.count(); n > 0 {
		inc.Misses = make([]string, n)
		for i := range inc.Misses {
			inc.Misses[i] = d.str()
		}
	}
	return inc
}

func (d *envelopeDecoder) steps() []TraceStep {
	n := d.count()
	if n == 0 {
		return nil
	}
	steps := make([]TraceStep, n)
	for i := range steps {
		steps[i] = TraceStep{Location: d.loc(), Var: d.str(), Value: d.str()}
	}
	return steps
}

func (d *envelopeDecoder) traces() []report.Trace {
	n := d.count()
	if n == 0 {
		return nil
	}
	traces := make([]report.Trace, n)
	for i := range traces {
		traces[i] = report.Trace{Finding: d.uint(), Context: d.str(), Path: d.str()}
	}
	return traces
}

// report reads the report's fields, its findings with their traces,
// its patches and its warnings. A trace of one run is a slice of the
// step table, capped so that an append to it cannot overwrite the steps
// after it; only a trace of several runs is copied out of the table.
func (d *envelopeDecoder) report(steps []TraceStep) *Report {
	rep := &Report{File: d.str()}
	switch code := d.uint(); code {
	case envelopeSafe:
		rep.Verdict, rep.Safe = VerdictSafe, true
	case envelopeUnsafe:
		rep.Verdict = VerdictUnsafe
	case envelopeIncomplete, envelopeUnsafeIncomplete:
		rep.Verdict, rep.Incomplete = VerdictIncomplete, true
		if code == envelopeUnsafeIncomplete {
			rep.Verdict = VerdictUnsafe
		}
		rep.Limits = make([]string, d.count())
		if !d.wire || len(rep.Limits) == 0 {
			d.bad = true
		}
		for i := range rep.Limits {
			rep.Limits[i] = d.str()
		}
	default:
		d.bad = true
	}
	rep.Symptoms = d.int()
	total := d.uint()
	// Each run takes at least two bytes and names at most the whole
	// step table.
	if total > maxEnvelopeSteps || total > len(steps)*(len(d.buf)/2) {
		d.bad = true
	}
	n := d.count()
	if d.bad {
		return nil
	}
	if n > 0 {
		rep.Findings = make([]Finding, n)
	}
	named := 0 // trace steps the runs so far name
	for i := range rep.Findings {
		f := &rep.Findings[i]
		f.Sink, f.Class, f.Location, f.Group = d.str(), d.str(), d.loc(), d.int()
		runs := d.count()
		for range runs {
			at, l := d.uint(), d.uint()
			if at > len(steps) || l > len(steps)-at || l > total-named {
				d.bad = true
				return nil
			}
			named += l
			switch {
			case l == 0:
			case runs == 1:
				f.Trace = steps[at : at+l : at+l]
			default:
				f.Trace = append(f.Trace, steps[at:at+l]...)
			}
		}
	}
	if named != total {
		d.bad = true
	}
	if n := d.count(); n > 0 {
		rep.Patches = make([]PatchPoint, n)
		for i := range rep.Patches {
			rep.Patches[i] = PatchPoint{Location: d.loc(), Var: d.str(), Description: d.str(), Findings: d.int()}
		}
	}
	rep.Groups = len(rep.Patches)
	if n := d.count(); n > 0 {
		rep.Warnings = make([]string, n)
		for i := range rep.Warnings {
			rep.Warnings[i] = d.str()
		}
	}
	if rep.Verdict != VerdictUnsafe && (len(rep.Findings) > 0 || len(rep.Patches) > 0) {
		d.bad = true
	}
	return rep
}

// profile reads a wire envelope's trailing profile section, if there is
// one: its length, then that many bytes of the profile's JSON, which
// end the payload.
func (d *envelopeDecoder) profile() *RunProfile {
	if d.bad || len(d.buf) == 0 {
		return nil
	}
	n := d.count()
	var p RunProfile
	if d.bad || n != len(d.buf) || json.Unmarshal(d.buf, &p) != nil {
		d.bad = true
		return nil
	}
	d.buf = nil
	return &p
}

// listed reports whether traces list each of rep's findings exactly
// once, group by group, in the counts the patches declare.
func listed(rep *Report, traces []report.Trace) bool {
	if len(traces) != len(rep.Findings) {
		return false
	}
	seen := make([]bool, len(traces))
	next := 0
	for g, p := range rep.Patches {
		if p.Findings < 0 || p.Findings > len(traces)-next {
			return false
		}
		for _, t := range traces[next : next+p.Findings] {
			if t.Finding < 0 || t.Finding >= len(seen) || seen[t.Finding] || rep.Findings[t.Finding].Group != g {
				return false
			}
			seen[t.Finding] = true
		}
		next += p.Findings
	}
	return next == len(traces)
}
