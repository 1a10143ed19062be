package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// variant is one serving configuration. A field at 0 is the reference's
// value: one shard, one worker, the rest off.
type variant struct {
	shards  int // 2 and 3: a router.Router over httptest shards
	ann     int // 1: a full-probe ANN pruner (nprobe = cells) on every index
	v1      int // 1: the committed v1 model file rather than its v2 twin
	workers int // par workers of the builds
	trace   int // 1: on at sample rate 1; 2: on, requests carrying a traceparent
	slo     int
	jsonl   int // 1: every generation loaded through corpus.ReadColumns from the corpus's JSONL bytes
}

// settings are the variant settings and the values a round draws from.
var settings = []struct {
	name   string
	values []int
	field  func(*variant) *int
}{
	{"shards", []int{1, 2, 3}, func(v *variant) *int { return &v.shards }},
	{"ann", []int{0, 1}, func(v *variant) *int { return &v.ann }},
	{"v1", []int{0, 1}, func(v *variant) *int { return &v.v1 }},
	{"workers", []int{1, 2, 4}, func(v *variant) *int { return &v.workers }},
	{"trace", []int{0, 1, 2}, func(v *variant) *int { return &v.trace }},
	{"slo", []int{0, 1}, func(v *variant) *int { return &v.slo }},
	{"jsonl", []int{0, 1}, func(v *variant) *int { return &v.jsonl }},
}

// TestServeDifferential is the serving oracle: each of its rounds draws,
// from the round's own seed, a corpus, a variant and a request sequence, and
// holds the variant's answers to a reference server's (oracleRound has the
// rules). Every setting value must be drawn in at least three rounds. A
// failure names its seed; -run 'TestServeDifferential/seed=N$' replays it.
func TestServeDifferential(t *testing.T) {
	const rounds = 48
	serveOracle(t, 1, rounds, nil)
	drawn := map[string]int{}
	for seed := int64(1); seed <= rounds; seed++ {
		_, _, v := drawRound(seed, nil)
		for _, s := range settings {
			drawn[fmt.Sprint(s.name, "=", *s.field(&v))]++
		}
	}
	for _, s := range settings {
		for _, x := range s.values {
			if n := drawn[fmt.Sprint(s.name, "=", x)]; n < 3 {
				t.Errorf("setting %s=%d drawn in %d rounds, want at least 3", s.name, x, n)
			}
		}
	}
}

// serveOracle runs rounds with seeds first, first+1, ..., each a subtest;
// force, when non-nil, sets what a pin holds fixed in every round.
func serveOracle(t *testing.T, first int64, rounds int, force func(*variant)) {
	t.Helper()
	models := oracleModels(t)
	for seed := first; seed < first+int64(rounds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, fx, v := drawRound(seed, force)
			desc := fmt.Sprintf("seed %d, %d companies, variant %+v", seed, fx.c.N(), v)
			goroutines := runtime.NumGoroutine()
			oracleRound(t, desc, g, fx, models, v)
			// The leak drill: a closed round leaves no goroutine of its servers,
			// routers, SLO trackers or httptest servers running.
			waitFor(t, desc+": goroutines back to "+fmt.Sprint(goroutines), func() bool { return runtime.NumGoroutine() <= goroutines })
		})
	}
}

// drawRound draws round seed's fixture and variant, force then overriding
// the drawn settings; the generator it returns then draws the round's
// requests.
func drawRound(seed int64, force func(*variant)) (*rng.RNG, oracleFixture, variant) {
	g := rng.New(seed)
	fx := drawFixture(g)
	var v variant
	for _, s := range settings {
		*s.field(&v) = s.values[g.Intn(len(s.values))]
	}
	if force != nil {
		force(&v)
	}
	return g, fx, v
}

// oracleRound holds the variant to the reference over one request sequence.
// The reference is one exact, unsharded Server over the v2 model, built at
// one worker, with tracing and SLO off. The rules:
//
//   - each reference answer is 400 where the request says so, and otherwise
//     the wire rendering of what direct core calls give (ids, names,
//     bit-exact scores); it ticks one of its endpoint's requests and errors
//     counters, the requests one exactly on a 200;
//   - every server of the variant holds the reference's model and
//     representation rows bit for bit;
//   - every request goes to the variant and gets the reference's status,
//     and its bytes on every 200 and wherever no router sits in front (a
//     router parses /v1/recommend itself and words its own errors); a routed
//     answer never sets X-Partial;
//   - with tracing or SLO on, a twin with both off replays the sequence
//     under the same rules, and every counter and histogram count but the
//     tracer's own must move by the same delta on both, zeros included.
func oracleRound(t *testing.T, desc string, g *rng.RNG, fx oracleFixture, models [2]string, v variant) {
	ref := deploy(t, fx, models, variant{})
	defer ref.close()
	refSt := ref.servers[0].cur.Load()
	reqs := drawRequests(g, fx, refSt.ix)
	want := make([]*httptest.ResponseRecorder, len(reqs))
	for i, rq := range reqs {
		served, failed := ticks(rq.ep)
		want[i] = ref.send(rq, false)
		if s, f := ticks(rq.ep); s+f != served+failed+1 || (want[i].Code == http.StatusOK) != (s == served+1) {
			t.Fatalf("%s: %s %s answered %d and moved serve_%s_requests_total by %d, errors by %d",
				desc, rq.method, rq.path, want[i].Code, rq.ep, s-served, f-failed)
		}
		status, body := http.StatusBadRequest, ""
		if rq.want != nil {
			val, err := rq.want(refSt.ix, refSt.model)
			if err != nil {
				t.Fatalf("%s: %s %s: direct core call: %v", desc, rq.method, rq.path, err)
			}
			status, body = http.StatusOK, string(must(json.Marshal(val)))+"\n"
		}
		if want[i].Code != status || want[i].Body.String() != body && status == http.StatusOK {
			t.Fatalf("%s: the reference answers %s %s %d %s; want %d %s", desc, rq.method, rq.path, want[i].Code, want[i].Body, status, body)
		}
	}

	dep := deploy(t, fx, models, v)
	defer dep.close()
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, s := range dep.servers {
		st, m := s.cur.Load(), refSt.model
		if !slices.EqualFunc(st.model.Phi.Data, m.Phi.Data, bits) || !slices.EqualFunc(st.ix.Reps.Data, refSt.ix.Reps.Data, bits) ||
			st.model.K != m.K || st.model.Alpha != m.Alpha || st.model.Beta != m.Beta || st.model.InferIters != m.InferIters {
			t.Fatalf("%s: a server's model or representation rows differ from the reference's", desc)
		}
	}
	moved := dep.replay(t, desc, reqs, want, v.trace == 2)
	if v.trace == 0 && v.slo == 0 {
		return
	}
	tv := v
	tv.trace, tv.slo = 0, 0
	twin := deploy(t, fx, models, tv)
	defer twin.close()
	// The registry only grows, so the twin's snapshot, taken last, names
	// every series either replay moved.
	traced := tracerOwned(t)
	for name, d := range twin.replay(t, desc+" (twin)", reqs, want, false) {
		if !traced[name] && moved[name] != d {
			t.Errorf("%s: %s moved by %d, by %d with tracing and SLO off", desc, name, moved[name], d)
		}
	}
}

// replay sends every request to d and holds each answer to want (see
// oracleRound) and returns how far every counter and histogram count moved.
func (d *deployment) replay(t *testing.T, desc string, reqs []request, want []*httptest.ResponseRecorder, traceparent bool) map[string]uint64 {
	t.Helper()
	before := counts()
	for i, rq := range reqs {
		got := d.send(rq, traceparent)
		routed := d.routed && rq.path != "/internal/recommend"
		sameBody := got.Code == http.StatusOK || !routed || !strings.HasPrefix(rq.path, "/v1/recommend/")
		if got.Code != want[i].Code || sameBody && got.Body.String() != want[i].Body.String() {
			t.Fatalf("%s: %s %s %s answers %d %s; the reference %d %s",
				desc, rq.method, rq.path, rq.body, got.Code, got.Body, want[i].Code, want[i].Body)
		}
		if routed && got.Result().Header.Get("X-Partial") != "" {
			t.Fatalf("%s: %s %s: a healthy fan-out set X-Partial", desc, rq.method, rq.path)
		}
	}
	after := counts()
	for name, n := range after {
		after[name] = n - before[name]
	}
	return after
}

// counts reads every counter and histogram count of the registry.
func counts() map[string]uint64 {
	snap := obs.Default().Snapshot()
	for name, h := range snap.Histograms {
		snap.Counters[name+"_count"] = h.Count
	}
	return snap.Counters
}

// tracerOwned names the series only tracing moves: the trace_* counters and
// the count of every span-duration histogram, which trace.Span.End observes
// under a help text ending "trace spans".
func tracerOwned(t *testing.T) map[string]bool {
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	owned := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		help, ok := strings.CutPrefix(line, "# HELP ")
		name, help, _ := strings.Cut(help, " ")
		if ok && strings.HasPrefix(name, "trace_") {
			owned[name] = true
		}
		if ok && strings.HasSuffix(help, " trace spans") {
			owned[name+"_count"] = true
		}
	}
	return owned
}

// ticks reads endpoint ep's served and failed counters.
func ticks(ep string) (served, failed uint64) {
	return counterValue("serve_" + ep + "_requests_total"), counterValue("serve_" + ep + "_errors_total")
}

// waitFor polls cond until it holds, failing t after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// oracleModels returns the model files a round serves: a v2 twin of the
// committed v1 LDA model, and that v1 file. The twin is what Save writes of
// the v1 gob payload as decoded here, not by lda's v1 reader, so a reader
// that alters what it reads makes the two models differ.
func oracleModels(t *testing.T) [2]string {
	t.Helper()
	v1 := filepath.Join("..", "lda", "testdata", "model_v1_k3v38.ibsnap")
	f, err := os.Open(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var g struct {
		K, V        int
		Alpha, Beta float64
		PhiData     []float64
		InferIters  int
	}
	if err := snapshot.Read(f, lda.KindModel, func(r io.Reader) error { return gob.NewDecoder(r).Decode(&g) }); err != nil {
		t.Fatal(err)
	}
	m := &lda.Model{K: g.K, V: g.V, Alpha: g.Alpha, Beta: g.Beta, Phi: mat.FromSlice(g.K, g.V, g.PhiData), InferIters: g.InferIters}
	v2 := filepath.Join(t.TempDir(), "model_v2.ibsnap")
	if err := snapshot.Atomic(v2, m.Save); err != nil {
		t.Fatal(err)
	}
	return [2]string{v2, v1}
}

// oracleFixture is a round's corpus over the default catalog (the model's 38
// categories). The representation rows of copies are overwritten with the
// anchor's, so that exact score ties cross shard boundaries; cells is the
// ANN cell count.
type oracleFixture struct {
	c      *corpus.Corpus
	anchor int
	copies []int
	cells  int
}

func drawFixture(g *rng.RNG) oracleFixture {
	cat := corpus.DefaultCatalog()
	countries := []string{"US", "US", "DE", "GB", "FR", "JP"}
	companies := make([]corpus.Company, 30+g.Intn(271))
	for i := range companies {
		co := corpus.Company{ID: i, Name: fmt.Sprintf("co-%03d", i),
			Country: countries[g.Intn(len(countries))], SIC2: 70 + g.Intn(6),
			Employees: 10 + g.Intn(5000), RevenueM: float64(g.Intn(20000)) / 8}
		for _, c := range g.Perm(cat.Size())[:1+g.Intn(5)] {
			co.Acquisitions = append(co.Acquisitions, corpus.Acquisition{Category: c, First: corpus.Month(g.Intn(24))})
		}
		co.SortAcquisitions()
		companies[i] = co
	}
	n := len(companies)
	fx := oracleFixture{c: corpus.New(cat, companies), anchor: g.Intn(n), cells: 2 + g.Intn(7)}
	for _, i := range g.Perm(n)[:3+g.Intn(5)] {
		if i != fx.anchor {
			fx.copies = append(fx.copies, i)
		}
	}
	return fx
}

// columns returns the fixture's columns and the install bases a fold-in
// reads: from the corpus, or, when jsonl is set, as ibserve loads them, from
// the bytes WriteJSONL makes of the corpus.
func (fx oracleFixture) columns(t *testing.T, jsonl bool) (*corpus.Columns, [][]int) {
	t.Helper()
	if !jsonl {
		return must(fx.c.Columns()), fx.c.Sets()
	}
	var buf bytes.Buffer
	if err := fx.c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	cols, err := corpus.ReadColumns(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return cols, cols.Sets()
}

// deployment is one configuration stood up over a fixture: its servers (one,
// or one per shard in partition order) and the handler requests go to.
type deployment struct {
	servers []*Server
	h       http.Handler
	routed  bool
	tracer  *trace.Tracer
	closers []func()
}

func deploy(t *testing.T, fx oracleFixture, models [2]string, v variant) *deployment {
	t.Helper()
	d := &deployment{tracer: trace.NewTracer(64)}
	d.tracer.SetEnabled(v.trace > 0)
	d.tracer.SetSampleRate(1)
	cfg := Config{Quiet: true, Logger: discardLogger(), Tracer: d.tracer}
	if v.slo == 1 {
		cfg.SLO = &api.SLOConfig{Window: time.Hour}
	}
	par.SetWorkers(max(1, v.workers))
	defer par.SetWorkers(0)
	parts := max(1, v.shards)
	for part := range parts {
		m, closeModel, err := lda.LoadFile(models[v.v1])
		if err != nil {
			t.Fatal(err)
		}
		cols, sets := fx.columns(t, v.jsonl == 1)
		reps := m.Representations(sets, rng.New(7))
		for _, i := range fx.copies {
			copy(reps.Row(i), reps.Row(fx.anchor))
		}
		ix, err := core.NewShardIndex(cols, reps, core.Cosine, part, parts)
		if err != nil {
			t.Fatal(err)
		}
		if v.ann == 1 {
			ix.SetPruner(annRouter(t, ix, fx.cells, fx.cells))
		}
		s, err := New(Loaded{Index: ix, Model: m, Close: closeModel}, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.servers = append(d.servers, s)
		d.closers = append(d.closers, s.Close)
	}
	d.h = d.servers[0].Handler()
	if parts == 1 {
		return d
	}
	rc := router.Config{ProbeInterval: -1, HedgeQuantile: -1, Quiet: true, Logger: discardLogger(), Tracer: d.tracer, SLO: cfg.SLO}
	for _, s := range d.servers {
		ts := httptest.NewServer(s.Handler())
		d.closers = append(d.closers, ts.Close)
		rc.Shards = append(rc.Shards, ts.URL)
	}
	rt, err := router.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	d.closers = append(d.closers, rt.Close)
	d.h, d.routed = rt.Handler(), true
	return d
}

// close stops the deployment: its router first, its servers last.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// send answers rq on d. A router has no /internal/recommend: any shard
// answers it, as one does a router's phase 2.
func (d *deployment) send(rq request, traceparent bool) *httptest.ResponseRecorder {
	h := d.h
	if rq.path == "/internal/recommend" {
		h = d.servers[0].Handler()
	}
	if traceparent {
		return fetch(h, rq.method, rq.path, rq.body, "traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	}
	return fetch(h, rq.method, rq.path, rq.body)
}

// fetch sends one request to h and returns the recorded answer; header holds
// name, value pairs. Its Result().Header is what a client sees: the headers
// as they stood when the handler wrote the status.
func fetch(h http.Handler, method, path, body string, header ...string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, strings.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		r.Header.Set(header[i], header[i+1])
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// request is one query of a round: the endpoint whose counters it ticks and
// the wire answer direct core calls give; a nil want marks a request that
// must fail 400.
type request struct {
	ep, method, path, body string
	want                   func(ix *core.Index, m *lda.Model) (any, error)
}

// drawRequests draws a round's request sequence: every endpoint, k at its
// default, 1, small and past N, filters cut from the corpus's own values
// (ranges and empty answers included), an id repeated under other filters
// and k, queries at the planted ties, and the error cases. ix, the
// reference's index, picks the peers /internal/recommend is posted.
func drawRequests(g *rng.RNG, fx oracleFixture, ix *core.Index) []request {
	n := fx.c.N()
	hot, small, peers := g.Intn(n), 2+g.Intn(7), 2+g.Intn(12)
	none := api.Filter{}
	filter := func() api.Filter {
		co := fx.c.Companies[g.Intn(n)]
		return []api.Filter{
			{Country: co.Country},
			{SIC2: co.SIC2},
			{MinEmployees: co.Employees},
			{MinRevenueM: co.RevenueM / 2, MaxRevenueM: co.RevenueM},
			{Country: co.Country, MaxEmployees: co.Employees},
			{Country: "XX"}, // admits no company
		}[g.Intn(6)]
	}
	matches := func(ix *core.Index, ms []core.Match) []api.Match {
		out := make([]api.Match, len(ms))
		for i, m := range ms {
			out[i] = api.Match{CompanyID: m.CompanyID, Name: ix.Name(m.CompanyID), Similarity: m.Similarity}
		}
		return out
	}
	similar := func(id, k int, f api.Filter) request {
		return request{"similar", http.MethodGet, fmt.Sprintf("/v1/similar/%d?%s", id, query("k", k, f)), "",
			func(ix *core.Index, _ *lda.Model) (any, error) {
				ms, err := ix.TopK(id, cmp.Or(k, 10), f.Core())
				return api.SimilarResponse{CompanyID: id, Name: ix.Name(id), K: cmp.Or(k, 10), Matches: matches(ix, ms)}, err
			}}
	}
	recommend := func(id, peers int, f api.Filter) request {
		return request{"recommend", http.MethodGet, fmt.Sprintf("/v1/recommend/%d?%s", id, query("peers", peers, f)), "",
			func(ix *core.Index, _ *lda.Model) (any, error) {
				recs, err := ix.RecommendFromSimilar(id, cmp.Or(peers, 25), f.Core())
				out := make([]api.Recommendation, len(recs))
				for i, r := range recs {
					out[i] = api.Recommendation{Category: r.Category, Name: r.Name, Strength: r.Strength, Owners: r.Owners}
				}
				return api.RecommendResponse{CompanyID: id, Name: ix.Name(id), Peers: cmp.Or(peers, 25), Recommendations: out}, err
			}}
	}
	whitespace := func(clients []int, k int, f api.Filter) request {
		return request{"whitespace", http.MethodPost, "/v1/whitespace", string(must(json.Marshal(api.WhitespaceRequest{Clients: clients, K: k, Filter: f}))),
			func(ix *core.Index, _ *lda.Model) (any, error) {
				ps, err := ix.Whitespace(clients, cmp.Or(k, 10), f.Core())
				out := make([]api.Prospect, len(ps))
				for i, p := range ps {
					out[i] = api.Prospect{CompanyID: p.CompanyID, Name: ix.Name(p.CompanyID), NearestClient: p.NearestClient, Similarity: p.Similarity}
				}
				return api.WhitespaceResponse{K: cmp.Or(k, 10), Prospects: out}, err
			}}
	}
	infer := func(owned []int, k int, f api.Filter) request {
		return request{"infer", http.MethodPost, "/v1/infer", string(must(json.Marshal(api.InferRequest{Owned: owned, K: k, Filter: f}))),
			func(ix *core.Index, m *lda.Model) (any, error) {
				theta := m.InferTheta(owned, rng.New(1))
				ms, err := ix.TopKByVectorContext(context.Background(), theta, cmp.Or(k, 10), f.Core())
				return api.InferResponse{Theta: theta, K: cmp.Or(k, 10), Matches: matches(ix, ms)}, err
			}}
	}
	// The peers the reference's /v1/similar gives must score as its
	// /v1/recommend does.
	internal := recommend(hot, peers, none)
	internal.method, internal.path = http.MethodPost, "/internal/recommend"
	body := api.InternalRecommendRequest{CompanyID: hot, Peers: peers}
	for _, m := range must(ix.TopK(hot, peers, core.Filter{})) {
		body.Matches = append(body.Matches, api.PeerMatch{CompanyID: m.CompanyID, Similarity: m.Similarity})
	}
	internal.body = string(must(json.Marshal(body)))
	clients := func() []int { return append(g.Perm(n)[:1+g.Intn(4)], fx.anchor) }
	owned := g.Perm(ix.M())[:1+g.Intn(4)]
	tooMany := make([]int, 1025)
	for i := range tooMany {
		tooMany[i] = i % n
	}
	refused := func(rq request) request { rq.want = nil; return rq }
	return []request{
		similar(hot, 0, none),
		similar(hot, 1, filter()),
		similar(hot, small, none),
		similar(hot, small, filter()),
		similar(fx.anchor, n+3, none),
		similar(fx.copies[g.Intn(len(fx.copies))], 1+len(fx.copies)/2, none),
		similar(g.Intn(n), small, filter()),
		recommend(hot, 0, none),
		recommend(hot, peers, none),
		recommend(hot, peers, filter()),
		recommend(g.Intn(n), peers, api.Filter{Country: "XX"}),
		whitespace(clients(), 0, none),
		whitespace(clients(), n+3, filter()),
		infer(owned, 0, none),
		infer(owned, small, filter()),
		internal,
		// the error cases
		refused(similar(-hot-1, small, none)),
		refused(similar(9999, small, none)),
		{"similar", http.MethodGet, fmt.Sprintf("/v1/similar/x%d", hot), "", nil},
		{"similar", http.MethodGet, fmt.Sprintf("/v1/similar/%d?min_revenue_m=NaN", hot), "", nil},
		refused(recommend(9999, peers, none)),
		{"whitespace", http.MethodPost, "/v1/whitespace", `{"clients":[1,`, nil},
		refused(whitespace(tooMany, small, none)),
		{"infer", http.MethodPost, "/v1/infer", fmt.Sprintf(`{"owned":[%d]}`, ix.M()), nil},
		{"recommend", http.MethodPost, "/internal/recommend", fmt.Sprintf(`{"company_id":%d,"matches":[{"company_id":9999}]}`, hot), nil},
		{"recommend", http.MethodPost, "/internal/recommend", `{"company_id":-1}`, nil},
	}
}

// query encodes a GET request's count parameter (left out at 0, the
// default) and its filter, under the filter's JSON names.
func query(name string, n int, f api.Filter) string {
	var fields map[string]any
	must(0, json.Unmarshal(must(json.Marshal(f)), &fields))
	q := url.Values{}
	for key, v := range fields {
		q.Set(key, fmt.Sprint(v))
	}
	if n != 0 {
		q.Set(name, fmt.Sprint(n))
	}
	return q.Encode()
}
