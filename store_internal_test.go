package webssari

// Internal tests of the persisted result envelope: they encode and
// decode blobs through the unexported codec (envelope.go), so they live
// inside the package.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"webssari/internal/ai"
	"webssari/internal/report"
)

// memStore is an in-memory StoreBackend holding the blobs one test
// writes; it is not safe for concurrent use.
type memStore map[string][]byte

func (m memStore) Get(key string) ([]byte, bool) { p, ok := m[key]; return p, ok }

func (m memStore) Put(key string, payload []byte) error { m[key] = payload; return nil }

func (m memStore) Invalidate(key string) { delete(m, key) }

// persist verifies the file at path with a fresh memStore attached and
// returns the report and the one envelope it persisted.
func persist(t testing.TB, path string, opts ...Option) (*Report, []byte) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mem := memStore{}
	opts = append([]Option{WithDir(filepath.Dir(path)), WithStoreBackend(mem)}, opts...)
	rep, err := Verify(src, path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(mem) != 1 {
		t.Fatalf("%s: persisted %d blobs, want 1", path, len(mem))
	}
	var payload []byte
	for _, p := range mem {
		payload = p
	}
	return rep, payload
}

// decodeOrMiss decodes payload through the store path and fails unless
// it is served, or reads as a miss and is invalidated.
func decodeOrMiss(t *testing.T, payload []byte) (*Report, bool) {
	t.Helper()
	mem := memStore{"k": payload}
	rep, ok := storeDecode(&config{resultStore: mem}, "k")
	if _, kept := mem["k"]; !ok && kept {
		t.Fatal("rejected envelope was not invalidated")
	}
	return rep, ok
}

// FuzzStoredEnvelope feeds arbitrary payloads through the envelope
// decoder, the boundary where bytes from disk (or a remote store)
// become a report. A payload must either read as a miss, and be
// invalidated, or serve a whole report of a state a complete run
// produces; it must never panic.
func FuzzStoredEnvelope(f *testing.F) {
	_, safe := persist(f, "examples/php/static.php")
	_, branchy := persist(f, "testdata/branchy/b8_three_roots.php")
	_, attr := persist(f, "examples/php/widget.php", WithPolicy("xss-context"))
	rep, ok := decodeEnvelope(attr, false)
	if !ok || !strings.Contains(rep.String(), "[attr]") {
		f.Fatalf("xss-context seed lacks an [attr] trace")
	}
	for _, seed := range [][]byte{safe, branchy, attr} {
		f.Add(seed)
	}
	for _, seed := range handBuiltEnvelopes() {
		f.Add(seed.payload)
	}
	f.Add(branchy[:len(branchy)/2])
	f.Add(append(append([]byte(nil), safe...), 0))

	f.Fuzz(func(t *testing.T, payload []byte) {
		rep, ok := decodeOrMiss(t, payload)
		if !ok {
			return
		}
		if rep.Profile == nil || !rep.Profile.StoreHit {
			t.Fatal("served report not marked as a store hit")
		}
		if rep.Incomplete || rep.Limits != nil {
			t.Fatalf("served an incomplete report: %+v", rep)
		}
		if rep.Verdict != VerdictSafe && rep.Verdict != VerdictUnsafe {
			t.Fatalf("served verdict %q", rep.Verdict)
		}
		if rep.Safe != (rep.Verdict == VerdictSafe) {
			t.Fatalf("served Safe=%v with verdict %q", rep.Safe, rep.Verdict)
		}
		if rep.Groups != len(rep.Patches) {
			t.Fatalf("served %d groups for %d patches", rep.Groups, len(rep.Patches))
		}
		if !strings.HasPrefix(rep.String(), "== WebSSARI report for ") {
			t.Fatalf("served text lacks its header: %q", rep.String())
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("served report does not marshal: %v", err)
		}
	})
}

// handBuilt is a payload written byte by byte, and whether the decoder
// serves it.
type handBuilt struct {
	name    string
	payload []byte
	served  bool
}

// handBuiltEnvelopes are two small servable envelopes and, for each
// rule of the decoder, a payload that breaks only that rule. Every one
// has a string table of one string, "x.php", which every reference
// names; a signed varint v is written as 2v.
func handBuiltEnvelopes() []handBuilt {
	envelope := func(body ...byte) []byte {
		return append([]byte{3, 1, 5, 'x', '.', 'p', 'h', 'p', 5}, body...)
	}
	// unsafe is the body of an unsafe report: no includes, one step, one
	// render record, one finding whose trace is the run (0, 1), one
	// patch repairing it, no warnings. Each with* changes one byte.
	unsafe := func(at int, b byte) []byte {
		body := []byte{
			0,    // name
			0, 0, // no include hashes or misses
			1,       // one step:
			0, 0, 0, //   location x.php:0:0
			0, 0, //   var, value
			1, 0, 0, 0, // one record: finding 0, context, path
			0, 1, 0, 1, // file, unsafe, 0 symptoms, 1 trace step
			1,    // one finding:
			0, 0, //   sink, class
			0, 0, 0, //   location
			0,       //   group 0
			1, 0, 1, //   one run: (0, 1)
			1,       // one patch:
			0, 0, 0, //   location
			0, 0, 2, //   var, description, 1 finding
			0, // no warnings
		}
		if at >= 0 {
			body[at] = b
		}
		return envelope(body...)
	}
	return []handBuilt{
		{"safe", envelope(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), true},
		{"unsafe", unsafe(-1, 0), true},
		{"other schema", append([]byte{2}, unsafe(-1, 0)[1:]...), false},
		{"table longer than the payload", []byte{3, 1, 9, 'x', '.', 'p', 'h', 'p', 5}, false},
		{"string lengths short of the table", append([]byte{3, 1, 5, 'x', '.', 'p', 'h', 'p', 4}, unsafe(-1, 0)[9:]...), false},
		{"name outside the table", unsafe(0, 1), false},
		{"count larger than the bytes left", unsafe(3, 100), false},
		{"verdict code 2", unsafe(14, 2), false},
		{"verdict code 3", unsafe(14, 3), false},
		{"safe report with a finding", unsafe(14, 0), false},
		{"more steps than the runs name", unsafe(16, 2), false},
		{"run outside the step table", unsafe(25, 1), false},
		{"run longer than the step table", unsafe(26, 2), false},
		{"record of a finding that does not exist", unsafe(10, 1), false},
		{"finding listed under another patch", unsafe(23, 2), false},
		{"patch repairing more findings than listed", unsafe(33, 4), false},
		{"trailing byte", append(unsafe(-1, 0), 0), false},
		{"truncated", unsafe(-1, 0)[:20], false},
		// Schema-2 JSON envelopes, which the build before schema 3
		// served: a safe report claiming five groups, and an incomplete
		// one.
		{"schema-2 groups without patches", []byte(`{"schema":2,"report":{"file":"x.php","groups":5}}`), false},
		{"schema-2 incomplete", []byte(`{"schema":2,"report":{"file":"x.php","verdict":"incomplete","incomplete":true,"limits":["deadline"]}}`), false},
		// What only the wire holds: an incomplete verdict with its limits
		// (the table's one string), and a profile section.
		{"wire incomplete", envelope(0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0), false},
		{"wire profile", append(envelope(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 2, '{', '}'), false},
	}
}

// wireEnvelope verifies the file at path and returns its report and the
// result envelope a daemon answers for it.
func wireEnvelope(t testing.TB, path string, opts ...Option) (*Report, []byte) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(src, path, append([]Option{WithDir(filepath.Dir(path))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeResult(rep)
	if err != nil {
		t.Fatal(err)
	}
	return rep, payload
}

// FuzzWireEnvelope feeds arbitrary payloads through the wire decoder,
// the boundary where a worker's answer becomes a report on the
// coordinator. A payload must either be rejected or decode to a report
// of a state some run produces, which encodes and decodes again to the
// same report; the store's decoder must serve it exactly when it is
// complete and carries no profile. It must never panic.
func FuzzWireEnvelope(f *testing.F) {
	budget := WithSolverConfig(SolverConfig{MaxConflicts: 1})
	for _, seed := range []struct {
		path string
		opts []Option
	}{
		{"examples/php/static.php", nil},
		{"testdata/branchy/b8_three_roots.php", nil},
		{"testdata/branchy/b5_four_conds.php", []Option{budget}},
		{"testdata/branchy/b8_three_roots.php", []Option{budget}},
	} {
		_, payload := wireEnvelope(f, seed.path, seed.opts...)
		f.Add(payload)
	}
	for _, seed := range handBuiltEnvelopes() {
		f.Add(seed.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rep, err := DecodeResult(payload)
		if err != nil {
			return
		}
		switch rep.Verdict {
		case VerdictSafe, VerdictUnsafe:
		case VerdictIncomplete:
			if !rep.Incomplete {
				t.Fatal("incomplete verdict without Incomplete")
			}
		default:
			t.Fatalf("decoded verdict %q", rep.Verdict)
		}
		if rep.Safe != (rep.Verdict == VerdictSafe) || rep.Incomplete == (len(rep.Limits) == 0) {
			t.Fatalf("decoded Safe=%v Incomplete=%v Limits=%q with verdict %q", rep.Safe, rep.Incomplete, rep.Limits, rep.Verdict)
		}
		if rep.Groups != len(rep.Patches) {
			t.Fatalf("decoded %d groups for %d patches", rep.Groups, len(rep.Patches))
		}
		if !strings.HasPrefix(rep.String(), "== WebSSARI report for ") {
			t.Fatalf("decoded text lacks its header: %q", rep.String())
		}
		if _, stored := decodeEnvelope(payload, false); stored != (!rep.Incomplete && rep.Profile == nil) {
			t.Fatalf("store decoder served=%v a wire report with Incomplete=%v, profile %v", stored, rep.Incomplete, rep.Profile != nil)
		}
		again, err := EncodeResult(rep)
		if err != nil {
			t.Fatalf("decoded report does not encode: %v", err)
		}
		back, err := DecodeResult(again)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		j1, err1 := json.Marshal(rep)
		j2, err2 := json.Marshal(back)
		if err1 != nil || err2 != nil || string(j1) != string(j2) || rep.String() != back.String() {
			t.Fatalf("report changed over a second round trip:\n%s\nvs\n%s", j1, j2)
		}
	})
}

// TestWireEnvelopeCarriesWhatTheStoreLeavesOut: an incomplete report,
// with findings or without, and a report's profile cross the wire
// intact — JSON, text and include snapshot — while the store's decoder
// rejects both. A complete report's wire envelope is its store envelope
// followed by the profile section.
func TestWireEnvelopeCarriesWhatTheStoreLeavesOut(t *testing.T) {
	budget := WithSolverConfig(SolverConfig{MaxConflicts: 1})
	for _, path := range []string{"testdata/branchy/b5_four_conds.php", "testdata/branchy/b8_three_roots.php"} {
		rep, payload := wireEnvelope(t, path, budget)
		if !rep.Incomplete {
			t.Fatalf("%s: not incomplete under a conflict budget of 1", path)
		}
		got, err := DecodeResult(payload)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		jw, _ := json.Marshal(rep)
		jg, _ := json.Marshal(got)
		if string(jg) != string(jw) || got.String() != rep.String() {
			t.Fatalf("%s: report changed over the wire:\n%s\nvs\n%s", path, jg, jw)
		}
		if !reflect.DeepEqual(report.Includes(got), report.Includes(rep)) {
			t.Fatalf("%s: include snapshot changed over the wire", path)
		}
		if _, ok := decodeEnvelope(payload, false); ok {
			t.Fatalf("%s: the store's decoder served an incomplete report", path)
		}
	}

	for _, tc := range handBuiltEnvelopes() {
		if strings.HasPrefix(tc.name, "wire ") {
			if _, err := DecodeResult(tc.payload); err != nil {
				t.Fatalf("%s: the wire decoder rejected it: %v", tc.name, err)
			}
		}
	}

	rep, stored := persist(t, "testdata/branchy/b8_three_roots.php")
	payload, err := EncodeResult(rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile == nil || !bytes.HasPrefix(payload, stored) || len(payload) == len(stored) {
		t.Fatal("a complete report's wire envelope is not its store envelope plus a profile section")
	}
	if _, ok := decodeEnvelope(payload, false); ok {
		t.Fatal("the store's decoder served a profile section")
	}
	got, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Profile, rep.Profile) {
		t.Fatalf("profile changed over the wire: %+v vs %+v", got.Profile, rep.Profile)
	}
}

// TestEncodeResultRejectsOversizeReport: a report with more trace steps
// than the decoder accepts has no result envelope, so a daemon answers
// it as a job failure rather than a payload no coordinator could read.
func TestEncodeResultRejectsOversizeReport(t *testing.T) {
	trace := make([]TraceStep, 1024)
	for i := range trace {
		trace[i].Location.Line = i
	}
	findings := make([]Finding, maxEnvelopeSteps/len(trace)+1)
	for i := range findings {
		findings[i] = Finding{Sink: "echo", Trace: trace}
	}
	rep := &Report{File: "big.php", Verdict: VerdictUnsafe, Findings: findings}
	if _, err := EncodeResult(rep); err == nil {
		t.Fatal("an envelope was encoded for more trace steps than the decoder accepts")
	}
}

// TestEnvelopeDecoderRules decodes each hand-built envelope through the
// store path: the servable ones are served, and every other one reads
// as a miss and is invalidated.
func TestEnvelopeDecoderRules(t *testing.T) {
	for _, tc := range handBuiltEnvelopes() {
		if _, ok := decodeOrMiss(t, tc.payload); ok != tc.served {
			t.Errorf("%s: served %v, want %v", tc.name, ok, tc.served)
		}
	}
}

// TestEnvelopeRoundTripCoversEveryField fills every exported field of a
// report, its findings, trace steps, patches, locations and render
// records, and of an include snapshot, with non-zero values by
// reflection, and requires the decoded envelope to give them back. A
// field added later and not encoded fails here. The fields a stored
// report derives (Safe, Verdict, Incomplete, Limits, Groups) and the
// indices that tie findings, patches and records together are set to a
// state a complete run produces; the profile is never stored.
func TestEnvelopeRoundTripCoversEveryField(t *testing.T) {
	n := 0
	var rep Report
	fill(t, reflect.ValueOf(&rep).Elem(), &n)
	var traces []report.Trace
	fill(t, reflect.ValueOf(&traces).Elem(), &n)
	var inc ai.Includes
	fill(t, reflect.ValueOf(&inc).Elem(), &n)

	rep.Safe, rep.Verdict, rep.Incomplete, rep.Limits = false, VerdictUnsafe, false, nil
	rep.Groups = len(rep.Patches)
	// Patch 0 repairs finding 1, patch 1 finding 0; the records list
	// them group by group.
	rep.Findings[0].Group, rep.Findings[1].Group = 1, 0
	rep.Patches[0].Findings, rep.Patches[1].Findings = 1, 1
	traces[0].Finding, traces[1].Finding = 1, 0
	// A step shared by two traces, out of table order: two runs.
	rep.Findings[1].Trace[1] = rep.Findings[0].Trace[0]
	report.Attach(&rep, traces, inc)

	payload := encodeEnvelope("name.php", &rep, false)
	got, ok := decodeEnvelope(payload, false)
	if !ok {
		t.Fatal("a complete report's envelope did not decode")
	}
	if !got.Profile.StoreHit {
		t.Fatal("decoded report not marked as a store hit")
	}
	want := rep
	want.Profile = nil
	served := *got
	served.Profile = nil
	jw, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	jg, err := json.Marshal(&served)
	if err != nil {
		t.Fatal(err)
	}
	if string(jg) != string(jw) {
		t.Fatalf("report JSON changed over the envelope:\n%s\nvs\n%s", jg, jw)
	}
	if !reflect.DeepEqual(report.Traces(got), traces) {
		t.Fatalf("render records changed over the envelope: %+v vs %+v", report.Traces(got), traces)
	}
	if got.String() != rep.String() {
		t.Fatalf("text changed over the envelope:\n%s\nvs\n%s", got.String(), rep.String())
	}
	if !reflect.DeepEqual(report.Includes(got), inc) {
		t.Fatalf("include snapshot changed over the envelope: %+v vs %+v", report.Includes(got), inc)
	}
}

// fill sets every exported field reachable from v, except a report's
// profile, to a non-zero value: strings to distinct texts, ints to
// distinct positive numbers, bools to true, slices to two elements and
// maps to two entries.
func fill(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() && f.Type != reflect.TypeFor[*RunProfile]() {
				fill(t, v.Field(i), n)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := range 2 {
			fill(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for range 2 {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, n)
			fill(t, e, n)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	default:
		t.Fatalf("fill: no rule for a %s (%s); extend the envelope and this test", v.Kind(), v.Type())
	}
}

// TestEnvelopeTruncationReadsAsMiss cuts a real branchy envelope at
// every length below its own, and extends it by one byte: each cut and
// the extension read as a miss and are invalidated.
func TestEnvelopeTruncationReadsAsMiss(t *testing.T) {
	_, payload := persist(t, "testdata/branchy/b8_three_roots.php")
	if _, ok := decodeOrMiss(t, payload); !ok {
		t.Fatal("the whole envelope did not decode")
	}
	for cut := range len(payload) {
		if _, ok := decodeOrMiss(t, payload[:cut]); ok {
			t.Fatalf("envelope cut to %d of %d bytes was served", cut, len(payload))
		}
	}
	if _, ok := decodeOrMiss(t, append(append([]byte(nil), payload...), 0)); ok {
		t.Fatal("envelope with a trailing byte was served")
	}
}

// TestStoredEnvelopeStoresStepsOnce persists the report of the branchy
// fixture with the most findings and checks that the envelope holds each
// distinct trace step once and no rendered text: its step table has one
// entry per distinct step, and the whole payload is smaller than the
// report's text.
func TestStoredEnvelopeStoresStepsOnce(t *testing.T) {
	paths, err := filepath.Glob("testdata/branchy/*.php")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no branchy fixtures: %v", err)
	}
	var rep *Report
	var payload []byte
	for _, path := range paths {
		r, p := persist(t, path)
		if rep == nil || len(r.Findings) > len(rep.Findings) {
			rep, payload = r, p
		}
	}
	distinct := make(map[TraceStep]bool)
	steps := 0
	for _, f := range rep.Findings {
		for _, s := range f.Trace {
			distinct[s] = true
			steps++
		}
	}
	d := envelopeDecoder{buf: payload}
	d.header()
	d.includes()
	table := d.steps()
	if d.bad {
		t.Fatal("envelope header did not decode")
	}
	if len(table) != len(distinct) {
		t.Fatalf("%s: step table has %d entries, want %d (the distinct steps of %d findings' %d)",
			rep.File, len(table), len(distinct), len(rep.Findings), steps)
	}
	if len(payload) >= len(rep.String()) {
		t.Fatalf("%s: envelope is %d bytes, not smaller than the %d-byte text it no longer stores",
			rep.File, len(payload), len(rep.String()))
	}
	t.Logf("%s: %d findings, %d steps (%d distinct); envelope %d bytes, text %d bytes",
		rep.File, len(rep.Findings), steps, len(distinct), len(payload), len(rep.String()))
}

// TestServedTracesShareSteps checks how a served report's traces are
// laid out. A trace of one run is a slice of the decoded step table, not
// a copy, and its capacity ends where it does, so an append to one
// finding's trace cannot write into another's. Decoding a report with
// one long trace allocates about the step table, not the step table and
// the trace again. A trace of several runs still decodes to the steps
// it was encoded from.
func TestServedTracesShareSteps(t *testing.T) {
	unsafeReport := func(traces ...[]TraceStep) *Report {
		rep := &Report{File: "x.php", Verdict: VerdictUnsafe, Symptoms: len(traces), Groups: 1}
		var records []report.Trace
		for i, trace := range traces {
			rep.Findings = append(rep.Findings, Finding{Sink: "echo", Trace: trace})
			records = append(records, report.Trace{Finding: i})
		}
		rep.Patches = []PatchPoint{{Var: "v", Findings: len(traces)}}
		report.Attach(rep, records, ai.Includes{})
		return rep
	}
	step := func(line int) TraceStep {
		return TraceStep{Location: Location{File: "x.php", Line: line}, Var: "v", Value: "tainted"}
	}

	rep := unsafeReport([]TraceStep{step(1), step(2)}, []TraceStep{step(3), step(4)})
	d := envelopeDecoder{buf: encodeEnvelope("x.php", rep, false)}
	d.header()
	d.includes()
	steps := d.steps()
	d.traces()
	got := d.report(steps)
	if d.bad || len(d.buf) > 0 || len(got.Findings) != 2 {
		t.Fatal("the two-finding envelope did not decode")
	}
	first, second := got.Findings[0].Trace, got.Findings[1].Trace
	if &first[0] != &steps[0] || &second[0] != &steps[2] {
		t.Fatal("a served single-run trace was copied out of the step table")
	}
	if cap(first) != len(first) {
		t.Fatalf("a served trace has capacity %d past its %d steps", cap(first), len(first))
	}
	_ = append(first, step(99))
	if second[0] != step(3) || steps[2] != step(3) {
		t.Fatal("an append to one finding's trace overwrote the next finding's steps")
	}

	const long = 30000
	trace := make([]TraceStep, long)
	for i := range trace {
		trace[i] = step(i + 1)
	}
	payload := encodeEnvelope("x.php", unsafeReport(trace), false)
	if served, ok := decodeEnvelope(payload, false); !ok || len(served.Findings[0].Trace) != long {
		t.Fatal("the long-trace envelope did not decode")
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		decodeEnvelope(payload, false)
	}
	runtime.ReadMemStats(&after)
	perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
	table := uint64(long) * uint64(unsafe.Sizeof(TraceStep{}))
	if perDecode > table*3/2 {
		t.Fatalf("decoding a %d-step trace allocated %d bytes, want about its %d-byte step table", long, perDecode, table)
	}

	// The second trace revisits the first's steps out of table order:
	// two runs, (1, 1) and (0, 1), concatenated.
	multi := unsafeReport([]TraceStep{step(1), step(2)}, []TraceStep{step(2), step(1), step(3)})
	served, ok := decodeEnvelope(encodeEnvelope("x.php", multi, false), false)
	if !ok || !reflect.DeepEqual(served.Findings, multi.Findings) || served.String() != multi.String() {
		t.Fatalf("a multi-run envelope decoded to %+v, want %+v", served.Findings, multi.Findings)
	}
}
