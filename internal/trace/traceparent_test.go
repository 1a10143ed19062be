package trace

import (
	"strings"
	"testing"
)

const validTP = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

func TestParseTraceparentValid(t *testing.T) {
	tp, ok := ParseTraceparent(validTP)
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if tp.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace ID %s", tp.TraceID)
	}
	if tp.Parent.String() != "b7ad6b7169203331" {
		t.Fatalf("parent span ID %s", tp.Parent)
	}
	if tp.Flags != 1 {
		t.Fatalf("flags %02x, want 01 (sampled)", tp.Flags)
	}
}

func TestParseTraceparentNotSampled(t *testing.T) {
	tp, ok := ParseTraceparent(validTP[:53] + "00")
	if !ok {
		t.Fatal("flags 00 rejected")
	}
	if tp.Flags != 0 {
		t.Fatalf("flags %02x, want 00", tp.Flags)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"truncated":          validTP[:54],
		"oversized":          validTP + "0",
		"huge":               strings.Repeat("a", 1<<16),
		"version 01":         "01" + validTP[2:],
		"version ff":         "ff" + validTP[2:],
		"uppercase trace id": "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
		"uppercase span id":  "00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01",
		"zero trace id":      "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"zero span id":       "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"missing dash 1":     "00x0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"missing dash 2":     "00-0af7651916cd43dd8448eb211c80319cxb7ad6b7169203331-01",
		"missing dash 3":     "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331x01",
		"non-hex trace id":   "00-0ag7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"non-hex flags":      validTP[:53] + "zz",
		"all dashes":         strings.Repeat("-", 55),
	}
	for name, in := range cases {
		if _, ok := ParseTraceparent(in); ok {
			t.Errorf("%s: %q accepted", name, in)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	tr := newTestTracer(2)
	tid, sid := tr.newTraceID(), tr.newSpanID()
	s := FormatTraceparent(tid, sid)
	tp, ok := ParseTraceparent(s)
	if !ok {
		t.Fatalf("formatted header %q did not parse", s)
	}
	if tp.TraceID != tid || tp.Parent != sid {
		t.Fatalf("round trip changed IDs: %s -> %s/%s", s, tp.TraceID, tp.Parent)
	}
	if tp.Flags&1 == 0 {
		t.Fatal("formatted header is not marked sampled")
	}
}

func TestParseTraceID(t *testing.T) {
	id, ok := ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	if !ok || id.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("valid trace ID rejected: %v %s", ok, id)
	}
	for _, bad := range []string{
		"", "0af7", strings.Repeat("0", 32), strings.Repeat("G", 32),
		strings.Repeat("a", 31), strings.Repeat("a", 33),
	} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}
