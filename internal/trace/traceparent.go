package trace

// W3C Trace Context (https://www.w3.org/TR/trace-context/) traceparent
// support: ibserve ingests the header so external callers' trace IDs carry
// through to /debug/traces, and echoes one back naming the server's root
// span so the caller can correlate. Parsing is strict and allocation-free:
// malformed input of any size is rejected by length checks before a byte of
// it is copied, which the fuzz target in fuzz_test.go pins down.

// TraceID is the 128-bit trace identifier.
type TraceID [16]byte

// SpanID is the 64-bit span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is all zeroes (invalid per the W3C spec).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is all zeroes (invalid per the W3C spec).
func (s SpanID) IsZero() bool { return s == SpanID{} }

const hexDigits = "0123456789abcdef"

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string {
	var b [32]byte
	for i, c := range t {
		b[2*i] = hexDigits[c>>4]
		b[2*i+1] = hexDigits[c&0xf]
	}
	return string(b[:])
}

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string {
	var b [16]byte
	for i, c := range s {
		b[2*i] = hexDigits[c>>4]
		b[2*i+1] = hexDigits[c&0xf]
	}
	return string(b[:])
}

// Traceparent is a parsed traceparent header.
type Traceparent struct {
	TraceID TraceID
	Parent  SpanID
	Flags   byte
}

// hexNibble decodes one lowercase hex digit; ok is false otherwise. The
// W3C grammar allows lowercase only, and being strict keeps the parser a
// pure table lookup.
func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// parseHex decodes exactly len(dst)*2 lowercase hex chars from s into dst.
func parseHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, ok1 := hexNibble(s[2*i])
		lo, ok2 := hexNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

// ParseTraceparent strictly parses a version-00 traceparent header:
// "00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>", lowercase hex only,
// all-zero IDs rejected. Any other shape — wrong length, wrong field count,
// uppercase hex, unknown or forbidden version — returns ok == false. The
// input is never copied or grown, so oversized garbage costs one length
// comparison.
func ParseTraceparent(s string) (tp Traceparent, ok bool) {
	// version(2) + '-' + traceid(32) + '-' + spanid(16) + '-' + flags(2)
	if len(s) != 55 {
		return Traceparent{}, false
	}
	if s[0] != '0' || s[1] != '0' { // only version 00 is understood
		return Traceparent{}, false
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return Traceparent{}, false
	}
	if !parseHex(tp.TraceID[:], s[3:35]) || tp.TraceID.IsZero() {
		return Traceparent{}, false
	}
	if !parseHex(tp.Parent[:], s[36:52]) || tp.Parent.IsZero() {
		return Traceparent{}, false
	}
	var flags [1]byte
	if !parseHex(flags[:], s[53:55]) {
		return Traceparent{}, false
	}
	tp.Flags = flags[0]
	return tp, true
}

// FormatTraceparent renders a version-00 traceparent header for the given
// trace and span with the sampled flag set — the form ibserve echoes back.
func FormatTraceparent(tid TraceID, sid SpanID) string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	for i, c := range tid {
		b[3+2*i] = hexDigits[c>>4]
		b[3+2*i+1] = hexDigits[c&0xf]
	}
	b[35] = '-'
	for i, c := range sid {
		b[36+2*i] = hexDigits[c>>4]
		b[36+2*i+1] = hexDigits[c&0xf]
	}
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b[:])
}

// ParseTraceID parses a 32-char lowercase hex trace ID (the /debug/traces/{id}
// path segment).
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if !parseHex(id[:], s) || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}
