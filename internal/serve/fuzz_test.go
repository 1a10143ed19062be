package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The handler fuzzers send one endpoint arbitrary input through
// Server.Handler() and hold three properties on every input: no panic, no
// 5xx, and exactly one of serve_<ep>_requests_total and serve_<ep>_errors_total
// ticks. An input with a timeout_ms parameter is skipped: a client that sets
// its own deadline may ask for the 503 or 504 it gets. The seeds are the
// request fixtures of internal/api/testdata, the fenced curl examples of
// README.md and DESIGN.md, and inputs that once reached code a check has
// since closed: a NaN revenue bound and min_ms=1e300.

func FuzzSimilarQuery(f *testing.F) {
	similar, _ := fuzzSeeds(f)
	for _, q := range similar {
		f.Add(q[0], q[1])
	}
	f.Add("0", "k=3&min_revenue_m=NaN")
	f.Add("0", "min_ms=1e300")
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, id, query string) {
		fuzzHandler(t, s, "similar", http.MethodGet, "/v1/similar/"+url.PathEscape(id)+"?"+query, "")
	})
}

func FuzzWhitespaceBody(f *testing.F) {
	fuzzBody(f, "whitespace", `{"clients":[1,2],"filter":{"max_revenue_m":1e300}}`)
}

func FuzzInferBody(f *testing.F) {
	fuzzBody(f, "infer", `{"owned":[1,2],"filter":{"min_revenue_m":"NaN"}}`)
}

func fuzzBody(f *testing.F, ep, seed string) {
	_, bodies := fuzzSeeds(f)
	for _, b := range append(bodies, seed) {
		f.Add(b)
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		fuzzHandler(t, s, ep, http.MethodPost, "/v1/"+ep, body)
	})
}

func fuzzServer(f *testing.F) *Server {
	s, _, _ := newTestServer(f, Config{Quiet: true, Logger: discardLogger()})
	f.Cleanup(s.Close)
	return s
}

// fuzzHandler sends one request to s and holds the fuzzers' properties; a
// request no client can send, or that the mux routes elsewhere, is skipped.
func fuzzHandler(t *testing.T, s *Server, ep, method, target, body string) {
	r, err := http.NewRequest(method, target, strings.NewReader(body))
	if err != nil || r.URL.Query().Has("timeout_ms") {
		t.Skip()
	}
	if _, pattern := s.mux.Handler(r); !strings.HasPrefix(pattern, method+" /v1/"+ep) {
		t.Skip()
	}
	served, failed := ticks(ep)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	s2, f2 := ticks(ep)
	if w.Code >= 500 || s2+f2 != served+failed+1 || (w.Code == http.StatusOK) != (s2 == served+1) {
		t.Fatalf("%s %s %q: %d %s; serve_%s_requests_total moved by %d, errors by %d",
			method, target, body, w.Code, w.Body, ep, s2-served, f2-failed)
	}
}

// fuzzSeeds returns /v1/similar id and query pairs and request bodies from
// the fenced curl examples of README.md and DESIGN.md, and the request
// fixtures of internal/api/testdata as bodies, each clamped to 4 KiB.
func fuzzSeeds(f *testing.F) (similar [][2]string, bodies []string) {
	clamp := func(s string) string { return s[:min(len(s), 4<<10)] }
	files, err := filepath.Glob(filepath.Join("..", "api", "testdata", "*request*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, clamp(string(b)))
	}
	similarRe := regexp.MustCompile(`/v1/similar/([^\s'"?|]*)\??([^\s'"|]*)`)
	bodyRe := regexp.MustCompile(`-d '([^']*)'`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			f.Fatal(err)
		}
		fenced := false
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if !fenced || !strings.Contains(line, "curl") {
				continue
			}
			for _, m := range similarRe.FindAllStringSubmatch(line, -1) {
				similar = append(similar, [2]string{clamp(m[1]), clamp(m[2])})
			}
			for _, m := range bodyRe.FindAllStringSubmatch(line, -1) {
				bodies = append(bodies, clamp(m[1]))
			}
		}
	}
	if len(similar) == 0 || len(bodies) == 0 {
		f.Fatalf("found %d /v1/similar and %d body seeds, want some of each", len(similar), len(bodies))
	}
	return similar, bodies
}
