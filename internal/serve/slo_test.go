package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/rng"
)

// TestSLOStatusAndDebugEndpoint drives a mixed workload through an
// SLO-tracking server and pins the rolling evaluation: request and error
// counts over the window, the burn-rate and budget math, /debug/slo in both
// formats, and the /healthz summary.
func TestSLOStatusAndDebugEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, Config{
		Quiet:  true,
		Logger: discardLogger(),
		// One slot, so the token pushed below saturates the server on any
		// host; the default is par.Workers() (GOMAXPROCS).
		MaxConcurrent: 1,
		SLO: &api.SLOConfig{
			Window:       time.Hour, // no rotation mid-test
			Availability: 0.999,
			// Generous objectives so LatencyOK is deterministic for the
			// healthy endpoints.
			Latency: map[string]time.Duration{"default": 10 * time.Second},
		},
	})
	defer s.Close()
	h := s.Handler()

	for i := 0; i < 4; i++ {
		if resp := getJSON(t, h, "/v1/similar/3?k=3", nil); resp.Code != http.StatusOK {
			t.Fatalf("similar status %d", resp.Code)
		}
	}
	// A 400 counts as a request but neither an error nor a latency sample.
	if resp := getJSON(t, h, "/v1/similar/notanid", nil); resp.Code != http.StatusBadRequest {
		t.Fatal("bad request not rejected")
	}
	// A saturation 503 is a server error: it consumes error budget.
	s.sem <- struct{}{}
	func() {
		defer func() { <-s.sem }()
		r := httptest.NewRequest(http.MethodGet, "/v1/recommend/2?timeout_ms=5", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("saturated status %d, want 503", w.Code)
		}
	}()

	// SLORoutes exposes exactly the /debug/slo mount.
	routes := s.SLORoutes()
	if len(routes) != 1 || routes[0].Pattern != "GET /debug/slo" {
		t.Fatalf("SLORoutes %+v", routes)
	}
	hSLO := routes[0].Handler
	var st api.SLOStatus
	if resp := getJSON(t, hSLO, "/debug/slo", &st); resp.Code != http.StatusOK {
		t.Fatal("debug/slo not served")
	}
	if st.WindowSec != 3600 || st.Availability != 0.999 || st.Buckets != api.DefaultSLOBuckets {
		t.Fatalf("config echo %+v", st)
	}
	byName := map[string]api.SLOEndpointStatus{}
	for _, e := range st.Endpoints {
		byName[e.Endpoint] = e
	}
	sim := byName["similar"]
	if sim.Requests != 5 || sim.Errors != 0 {
		t.Fatalf("similar window counts %+v", sim)
	}
	if !sim.OK || !sim.AvailabilityOK || !sim.LatencyOK || sim.BurnRate != 0 || sim.BudgetRemaining != 1 {
		t.Fatalf("healthy endpoint evaluated unhealthy: %+v", sim)
	}
	if sim.P99MS <= 0 || sim.P50MS > sim.P999MS {
		t.Fatalf("windowed quantiles %+v", sim)
	}
	if sim.QPS <= 0 {
		t.Fatalf("QPS %v", sim.QPS)
	}
	rec := byName["recommend"]
	if rec.Requests != 1 || rec.Errors != 1 {
		t.Fatalf("recommend window counts %+v", rec)
	}
	// errRate 1.0 against a 0.001 budget: burn rate ~1000, budget gone.
	if rec.ErrorRate != 1 || rec.BurnRate < 999 || rec.BurnRate > 1001 || rec.BudgetRemaining != 0 {
		t.Fatalf("burn math %+v", rec)
	}
	if rec.AvailabilityOK || rec.OK {
		t.Fatalf("burning endpoint evaluated OK: %+v", rec)
	}
	if st.OK || len(st.Burning) == 0 || st.Burning[0] != "recommend" {
		t.Fatalf("overall status %+v burning %v", st.OK, st.Burning)
	}

	// Text rendering carries the same story.
	text := fetch(hSLO, http.MethodGet, "/debug/slo?format=text", "").Body.String()
	if !strings.Contains(text, "BURNING: recommend") || !strings.Contains(text, "burning(avail)") {
		t.Fatalf("text rendering:\n%s", text)
	}

	// /healthz folds in the one-line summary.
	var health healthResponse
	getJSON(t, h, "/healthz", &health)
	if health.SLO == nil || health.SLO.OK || len(health.SLO.Burning) != 1 {
		t.Fatalf("healthz slo summary %+v", health.SLO)
	}
}

// TestSLOMetricAndResponseInvariance runs the serving oracle with SLO tracking
// on in every round, so each round's twin (SLO off) must answer the same
// bytes and move every counter it moves by the same delta. Off, a server
// exposes no SLO surface: no routes and no slo key in /healthz.
func TestSLOMetricAndResponseInvariance(t *testing.T) {
	serveOracle(t, 5001, 1, func(v *variant) { v.slo = 1 })
	d := deploy(t, drawFixture(rng.New(5)), oracleModels(t), variant{})
	defer d.close()
	if routes := d.servers[0].SLORoutes(); routes != nil {
		t.Fatalf("SLO-off server mounted routes: %+v", routes)
	}
	if w := fetch(d.h, http.MethodGet, "/healthz", ""); strings.Contains(w.Body.String(), `"slo"`) {
		t.Fatalf("SLO-off healthz mentions slo:\n%s", w.Body)
	}
}
