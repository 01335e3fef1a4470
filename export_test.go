package webssari

// The result-envelope codec, for the external tests that rewrite a
// store as older builds wrote it and read back the schemas it holds.
var DecodeEnvelope = decodeEnvelope

const ResultSchema = resultSchema
