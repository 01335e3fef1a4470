package webssari

// The result-envelope codec, for the external tests that rewrite a
// store as older builds wrote it and read back the schemas it holds.
func DecodeEnvelope(payload []byte) (*Report, bool) { return decodeEnvelope(payload, false) }

const ResultSchema = resultSchema
