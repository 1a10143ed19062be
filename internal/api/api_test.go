package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestWireGolden pins "one schema ≡ both former schemas": every file under
// testdata/ was marshalled by the serve package's (and, for *_partial, the
// router package's) private wire types at the commit before internal/api
// existed, from the same values built here. A field rename, reorder or tag
// change shows up as a byte diff.
func TestWireGolden(t *testing.T) {
	matches := []Match{
		{CompanyID: 7, Name: "co-07", Similarity: 0.9999999999999998},
		{CompanyID: 12, Name: `co "12" <&>`, Similarity: 0.1},
		{CompanyID: 3, Name: "", Similarity: -0.25},
	}
	recs := []Recommendation{
		{Category: 2, Name: "Storage", Strength: 0.3333333333333333, Owners: 3},
		{Category: 11, Name: "CRM", Strength: 1e-9, Owners: 1},
	}
	prospects := []Prospect{
		{CompanyID: 9, Name: "co-09", NearestClient: 1, Similarity: 0.75},
		{CompanyID: 0, Name: "co-00", NearestClient: 0, Similarity: 0},
	}
	partial := Degraded{Partial: true, MissingShards: []int{1}}
	golden := map[string]any{
		"similar":            SimilarResponse{CompanyID: 5, Name: "co-05", K: 3, Matches: matches},
		"similar_empty":      SimilarResponse{CompanyID: 5, Name: "co-05", K: 3, Matches: []Match{}},
		"similar_partial":    SimilarResponse{CompanyID: 5, Name: "co-05", K: 3, Matches: matches, Degraded: partial},
		"recommend":          RecommendResponse{CompanyID: 4, Name: "co-04", Peers: 8, Recommendations: recs},
		"recommend_partial":  RecommendResponse{CompanyID: 4, Name: "co-04", Peers: 8, Recommendations: recs, Degraded: partial},
		"whitespace":         WhitespaceResponse{K: 2, Prospects: prospects},
		"whitespace_partial": WhitespaceResponse{K: 2, Prospects: prospects, Degraded: partial},
		"infer":              InferResponse{Theta: []float64{0.125, 0.875}, K: 3, Matches: matches},
		"infer_partial":      InferResponse{Theta: []float64{0.125, 0.875}, K: 3, Matches: matches, Degraded: partial},
		"whitespace_request": WhitespaceRequest{Clients: []int{1, 2, 5}, K: 6,
			Filter: Filter{Country: "DE", MinEmployees: 100, MaxRevenueM: 12.5}},
		"whitespace_request_zero": WhitespaceRequest{Clients: []int{3}},
		"infer_request": InferRequest{Owned: []int{0, 4, 7}, K: 4,
			Filter: Filter{SIC2: 73, MaxEmployees: 900, MinRevenueM: 1.5}},
		"internal_recommend_request": InternalRecommendRequest{CompanyID: 4, Peers: 8,
			Matches: []PeerMatch{{CompanyID: 7, Similarity: 0.9999999999999998}, {CompanyID: 12, Similarity: 0.1}}},
	}
	files, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(golden) {
		t.Fatalf("testdata holds %d goldens, the table %d", len(files), len(golden))
	}
	for name, v := range golden {
		want, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got)+"\n" != string(want) {
			t.Errorf("%s: wire bytes changed\nwant %sgot  %s", name, want, got)
		}
	}
}

// TestBetterDelegatesToCore pins the wire-type orders to core's: similarity
// descending, then company id ascending.
func TestBetterDelegatesToCore(t *testing.T) {
	hi, lo := Match{CompanyID: 9, Similarity: 0.9}, Match{CompanyID: 1, Similarity: 0.1}
	if !MatchBetter(hi, lo) || MatchBetter(lo, hi) {
		t.Error("MatchBetter does not rank the higher similarity first")
	}
	tieA, tieB := Match{CompanyID: 2, Similarity: 0.5}, Match{CompanyID: 3, Similarity: 0.5}
	if !MatchBetter(tieA, tieB) || MatchBetter(tieB, tieA) {
		t.Error("MatchBetter does not break similarity ties on the lower id")
	}
	pa := Prospect{CompanyID: 2, NearestClient: 4, Similarity: 0.5}
	pb := Prospect{CompanyID: 3, NearestClient: 1, Similarity: 0.5}
	if !ProspectBetter(pa, pb) || ProspectBetter(pb, pa) {
		t.Error("ProspectBetter does not break similarity ties on the lower id")
	}
}

// TestStatusForAndBodyError pins the one error → status mapping.
func TestStatusForAndBodyError(t *testing.T) {
	tooBig := &http.MaxBytesError{Limit: 512}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"explicit status", &Error{Status: http.StatusNotImplemented, Err: errors.New("x")}, 501},
		{"wrapped explicit status", fmt.Errorf("ctx: %w", &Error{Status: 502, Err: errors.New("x")}), 502},
		{"bad request", BadRequest("id %q", "x"), 400},
		{"deadline", fmt.Errorf("scan: %w", context.DeadlineExceeded), 504},
		{"cancelled", context.Canceled, 504},
		{"core validation", errors.New("core: negative k"), 400},
		{"oversized body", BodyError(fmt.Errorf("decode: %w", tooBig), "cap %d", "bad: %v"), 413},
		{"malformed body", BodyError(io.ErrUnexpectedEOF, "cap %d", "bad: %v"), 400},
	}
	for _, tc := range cases {
		if got := StatusFor(tc.err); got != tc.want {
			t.Errorf("%s: StatusFor = %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := BodyError(tooBig, "serve: body exceeds the %d-byte limit", "").Error(); got != "serve: body exceeds the 512-byte limit" {
		t.Errorf("413 text %q does not name the cap", got)
	}
	if got := BodyError(io.ErrUnexpectedEOF, "", "router: reading request body: %v").Error(); got != "router: reading request body: unexpected EOF" {
		t.Errorf("400 text %q does not carry the cause", got)
	}
	if inner := errors.Unwrap(BadRequest("boom")); inner == nil || inner.Error() != "boom" {
		t.Errorf("Error does not unwrap to its cause: %v", inner)
	}
}

// TestRequestTimeoutParam pins the timeout_ms contract: the parameter can
// only shrink the configured deadline, never extend it.
func TestRequestTimeoutParam(t *testing.T) {
	const limit = 100 * time.Millisecond
	cases := []struct {
		query string
		want  time.Duration
	}{
		{"", limit},
		{"timeout_ms=5", 5 * time.Millisecond},
		{"timeout_ms=0.5", 500 * time.Microsecond},
		{"timeout_ms=500", limit}, // capped
		{"timeout_ms=0", limit},
		{"timeout_ms=-3", limit},
		{"timeout_ms=junk", limit},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/v1/similar/1?"+tc.query, nil)
		if got := requestTimeout(r, limit); got != tc.want {
			t.Errorf("timeout for %q = %v, want %v", tc.query, got, tc.want)
		}
	}
}

func TestParseLatencyObjectives(t *testing.T) {
	got, err := ParseLatencyObjectives("default=100ms, similar=50ms,infer=2s")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"default": 100 * time.Millisecond,
		"similar": 50 * time.Millisecond,
		"infer":   2 * time.Second,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, d := range want {
		if got[k] != d {
			t.Fatalf("objective %s = %v, want %v", k, got[k], d)
		}
	}
	if got, err := ParseLatencyObjectives("  "); err != nil || got != nil {
		t.Fatalf("blank input: %v, %v", got, err)
	}
	for _, bad := range []string{"similar", "similar=", "similar=fast", "similar=-5ms", "similar=0s"} {
		if _, err := ParseLatencyObjectives(bad); err == nil {
			t.Errorf("ParseLatencyObjectives(%q) did not fail", bad)
		}
	}

	cfg := SLOConfig{Latency: want}
	if d := cfg.latencyObjective("similar"); d != 50*time.Millisecond {
		t.Fatalf("explicit objective %v", d)
	}
	if d := cfg.latencyObjective("recommend"); d != 100*time.Millisecond {
		t.Fatalf("default-key fallback %v", d)
	}
	if d := (SLOConfig{}).latencyObjective("recommend"); d != DefaultSLOLatency {
		t.Fatalf("constant fallback %v", d)
	}
}

// TestReadyz pins the one /readyz handler: ready by default, 503 "draining"
// once SetReady(false), and back.
func TestReadyz(t *testing.T) {
	var sh Shell
	probe := func() (int, string) {
		w := httptest.NewRecorder()
		sh.HandleReady(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return w.Code, w.Body.String()
	}
	if code, body := probe(); code != http.StatusOK || body != "{\"status\":\"ready\"}\n" || !sh.Ready() {
		t.Fatalf("zero Shell /readyz = %d %q", code, body)
	}
	sh.SetReady(false)
	if code, body := probe(); code != http.StatusServiceUnavailable || body != "{\"status\":\"draining\"}\n" || sh.Ready() {
		t.Fatalf("draining /readyz = %d %q", code, body)
	}
	sh.SetReady(true)
	if code, _ := probe(); code != http.StatusOK {
		t.Fatalf("re-readied /readyz = %d", code)
	}
}

// TestAccessLogLines pins what logRequest writes — and that a quiet shell
// writes nothing for a successful request under the slow threshold, the case
// every request of a -quiet server is.
func TestAccessLogLines(t *testing.T) {
	tr := trace.NewTracer(1)
	tr.SetSlowThreshold(100 * time.Millisecond)
	const fast, slow = 1500 * time.Microsecond, 250 * time.Millisecond
	fields := func(status int, ms string) string {
		return fmt.Sprintf("endpoint=similar method=GET path=/v1/similar/3 status=%d dur_ms=%s gen=7\n", status, ms)
	}
	cases := []struct {
		name   string
		quiet  bool
		status int
		dur    time.Duration
		want   string
	}{
		{"quiet success", true, 200, fast, ""},
		{"quiet failure", true, 404, fast, "level=WARN msg=request " + fields(404, "1.5")},
		{"success", false, 200, fast, "level=INFO msg=request " + fields(200, "1.5")},
		{"quiet slow success", true, 200, slow, `level=WARN msg="slow query" ` + fields(200, "250")},
		{"slow failure", false, 504, slow, "level=WARN msg=request " + fields(504, "250") +
			`level=WARN msg="slow query" ` + fields(504, "250")},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{
			ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
				if a.Key == slog.TimeKey {
					return slog.Attr{}
				}
				return a
			},
		}))
		sh := &Shell{Logger: logger, Tracer: tr, Quiet: tc.quiet, Generation: func() uint64 { return 7 }}
		sh.logRequest(httptest.NewRequest("GET", "/v1/similar/3?k=5", nil), "similar", tc.status, tc.dur, nil)
		if got := buf.String(); got != tc.want {
			t.Errorf("%s: logged %q, want %q", tc.name, got, tc.want)
		}
	}
}
