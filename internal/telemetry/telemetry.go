// Package telemetry is the engine's unified observability layer: metrics
// (counters, gauges, histograms), hierarchical tracing (Chrome trace-event
// JSON), HTTP exposition (Prometheus text, expvar, pprof), and the
// RunProfile summary attached to verification reports.
//
// The package is deliberately zero-dependency (stdlib only) and designed
// so that an *uninstrumented* run pays nothing: every method on every
// type is nil-safe, a context without a Telemetry yields nil spans, a nil
// Registry records nothing, and the hot-path cost of a disabled site is a
// single pointer comparison. Instrumented call sites therefore never need to be
// guarded:
//
//	ctx, sp := telemetry.StartSpan(ctx, "parse")
//	...
//	sp.End() // no-op when telemetry is disabled
//
// One Telemetry value is safe for concurrent use by any number of
// goroutines; the parallel project verifier shares a single instance
// across its whole worker pool.
package telemetry

import "context"

// Telemetry bundles the observability sinks: a metrics Registry, a span
// Tracer, and optionally the structured-log flight recorder. Any field
// may be nil to enable just some kinds of collection; a nil *Telemetry
// disables everything.
type Telemetry struct {
	// Metrics receives counter/gauge/histogram updates.
	Metrics *Registry
	// Tracer receives span begin/end events.
	Tracer *Tracer
	// Logs, when set, is the bounded ring of recent structured-log
	// events exposed at /debug/events by ServeMetrics/Serve.
	Logs *FlightRecorder
}

// New returns a Telemetry with a fresh Registry and Tracer.
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Tracer: NewTracer()}
}

// ctxKey is the private context-key namespace.
type ctxKey int

const (
	telemetryKey ctxKey = iota
	spanKey
	traceCtxKey
	loggerKey
)

// WithTelemetry returns a context carrying t; the engine's pipeline
// stages discover their sinks through it. Attaching nil is allowed and
// equivalent to not attaching anything.
func WithTelemetry(ctx context.Context, t *Telemetry) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, telemetryKey, t)
}

// From returns the Telemetry carried by ctx, or nil. The nil result is
// directly usable: spans derived from it are no-ops.
func From(ctx context.Context) *Telemetry {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(telemetryKey).(*Telemetry)
	return t
}
