package telemetry

// Distributed trace propagation: every verification job gets a trace ID
// at admission, and the ID travels across process boundaries as a W3C
// `traceparent` header (https://www.w3.org/TR/trace-context/):
//
//	traceparent: 00-<trace-id:32hex>-<parent-id:16hex>-01
//
// The typed client injects the header from its context, the daemon
// extracts it (or mints a fresh ID), and the cluster coordinator
// re-derives a child context per dispatch hop — so a clustered job's
// spans and log lines carry one trace ID from the submitting client
// through the coordinator down to every worker, and the coordinator's
// job trace, holding each worker's engine spans (DrawProfile), is
// navigable as a single artifact.
//
// The model is deliberately smaller than full OpenTelemetry: span IDs
// are minted per *hop* (Child), not per span — parenthood inside one
// process is already expressed by span nesting and lanes, so the wire
// only needs to say "same trace, new causal step".

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
)

// TraceparentHeader is the W3C trace-context header name.
const TraceparentHeader = "traceparent"

// TraceContext identifies one causal step of a distributed trace: the
// trace ID shared by every hop, and the span ID of the current scope
// (which becomes the parent ID of the next hop's traceparent). The zero
// value is "no trace" and is safe everywhere.
type TraceContext struct {
	// TraceID is 32 lowercase hex digits, constant across the trace.
	TraceID string
	// SpanID is 16 lowercase hex digits identifying the current scope.
	SpanID string
}

// NewTraceContext mints a fresh trace: random trace ID, random root
// span ID.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8)}
}

// randHex returns 2n lowercase hex digits of cryptographic randomness.
func randHex(n int) string {
	buf := make([]byte, n)
	// crypto/rand.Read cannot fail on supported platforms; if it ever
	// does, the zeroed buffer still yields a syntactically valid
	// (if non-unique) ID rather than a panic in the hot path.
	_, _ = rand.Read(buf)
	return hex.EncodeToString(buf)
}

// Valid reports whether tc carries a well-formed, non-zero trace ID and
// span ID.
func (tc TraceContext) Valid() bool {
	return isHexID(tc.TraceID, 32) && isHexID(tc.SpanID, 16)
}

// isHexID checks for exactly n lowercase hex digits, not all zero.
func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// Child returns the next hop's context: same trace, fresh span ID. Call
// it at every causal boundary — job admission to job execution, job
// execution to a remote dispatch — so each hop's traceparent names its
// true parent.
func (tc TraceContext) Child() TraceContext {
	if !tc.Valid() {
		return tc
	}
	return TraceContext{TraceID: tc.TraceID, SpanID: randHex(8)}
}

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set); "" when invalid.
func (tc TraceContext) Traceparent() string {
	if !tc.Valid() {
		return ""
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// ParseTraceparent parses a traceparent header value. It accepts any
// version except the reserved "ff", ignores the trace-flags octet, and
// rejects malformed or all-zero IDs — a caller that gets ok=false
// should mint a fresh context instead.
func ParseTraceparent(h string) (TraceContext, bool) {
	h = strings.TrimSpace(h)
	parts := strings.Split(h, "-")
	if len(parts) < 4 {
		return TraceContext{}, false
	}
	version, traceID, spanID := parts[0], parts[1], parts[2]
	if len(version) != 2 || version == "ff" {
		return TraceContext{}, false
	}
	for i := 0; i < 2; i++ {
		c := version[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return TraceContext{}, false
		}
	}
	tc := TraceContext{TraceID: traceID, SpanID: spanID}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// WithTraceContext returns a context carrying tc; spans started under it
// are stamped with the trace ID, and the typed client injects the
// traceparent header from it. Attaching an invalid context is a no-op.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey, tc)
}

// TraceContextFrom returns the TraceContext carried by ctx, or the zero
// value.
func TraceContextFrom(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	tc, _ := ctx.Value(traceCtxKey).(TraceContext)
	return tc
}
