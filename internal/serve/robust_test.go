package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestMaxBodyBytes413 pins the POST body cap: an oversized body fails with
// 413, names the limit, and ticks exactly the endpoint's error counter —
// never its served counter (the delta-test discipline for metric semantics).
func TestMaxBodyBytes413(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxBodyBytes: 512})
	h := s.Handler()

	huge := `{"clients":[1,2],"pad":"` + strings.Repeat("x", 2048) + `"}`
	for _, tc := range []struct{ path, endpoint string }{
		{"/v1/whitespace", "whitespace"},
		{"/v1/infer", "infer"},
	} {
		served0 := counterValue("serve_" + tc.endpoint + "_requests_total")
		errs0 := counterValue("serve_" + tc.endpoint + "_errors_total")
		w := fetch(h, http.MethodPost, tc.path, huge)
		var body map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d, want 413", tc.path, w.Code)
		}
		if !strings.Contains(body["error"], "512-byte limit") {
			t.Fatalf("%s 413 body should name the limit, got %q", tc.path, body["error"])
		}
		if got := counterValue("serve_" + tc.endpoint + "_errors_total"); got != errs0+1 {
			t.Errorf("%s errors_total delta = %d, want 1", tc.endpoint, got-errs0)
		}
		if got := counterValue("serve_" + tc.endpoint + "_requests_total"); got != served0 {
			t.Errorf("%s requests_total moved on a rejected body", tc.endpoint)
		}
	}

	// A body under the cap still works.
	if w := fetch(h, http.MethodPost, "/v1/whitespace", `{"clients":[1,2],"k":3}`); w.Code != http.StatusOK {
		t.Fatalf("in-limit body: status %d, want 200", w.Code)
	}
}

// TestReadyz pins the readiness endpoint: ready by default, 503 once
// draining, flippable back, and distinct from /healthz (which stays 200 —
// a draining process is alive).
func TestReadyz(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	h := s.Handler()

	get := func(path string) (int, string) {
		t.Helper()
		w := fetch(h, http.MethodGet, path, "")
		return w.Code, w.Body.String()
	}

	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("fresh server /readyz = %d %q, want 200 ready", code, body)
	}
	s.SetReady(false)
	if s.Ready() {
		t.Fatal("Ready() true after SetReady(false)")
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining /readyz = %d %q, want 503 draining", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (liveness is not readiness)", code)
	}
	// Queries still answer while draining: the flag only steers routers.
	if code, _ := get("/v1/similar/3?k=2"); code != http.StatusOK {
		t.Fatalf("draining /v1/similar = %d, want 200", code)
	}
	s.SetReady(true)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("re-readied /readyz = %d, want 200", code)
	}
}

// TestInternalRecommendMatchesPublic runs the serving oracle over sharded
// variants: every round posts /internal/recommend the peers the reference's
// /v1/similar returns, and must get the /v1/recommend answer, and the
// router's two-phase recommend must answer as one server does.
func TestInternalRecommendMatchesPublic(t *testing.T) {
	serveOracle(t, 4001, 1, func(v *variant) { v.shards = 2 })
}
