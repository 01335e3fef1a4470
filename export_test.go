package webssari

import "webssari/internal/sat"

// The result-envelope codec, for the external tests that rewrite a
// store as older builds wrote it and read back the schemas it holds.
func DecodeEnvelope(payload []byte) (*Report, bool) { return decodeEnvelope(payload, false) }

const ResultSchema = resultSchema

// WithSearchOptions replaces the CDCL search's switches (decision
// heuristic, clause learning, restarts), for the external tests that
// check reports do not depend on how the search runs.
func WithSearchOptions(o sat.Options) Option {
	return func(c *config) error {
		c.solver = o
		return nil
	}
}
