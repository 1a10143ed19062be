package serve

import (
	"context"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/lda"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// trainTestModel trains the deterministic fixture model used by the
// cross-format serving tests.
func trainTestModel(t *testing.T) *lda.Model {
	t.Helper()
	c := testCorpus()
	m, err := lda.TrainContext(context.Background(),
		lda.Config{Topics: 2, V: c.M(), BurnIn: 10, Iterations: 20, SampleLag: 5},
		c.Sets(), nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serverOverModelFile stands a Server over the model snapshot at path,
// loading it exactly the way ibserve does (lda.LoadFile → mmap for v2,
// legacy gob decode for v1; model Close wired into the generation).
func serverOverModelFile(t *testing.T, path string) *Server {
	t.Helper()
	m, closeFn, err := lda.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus()
	reps := m.Representations(c.Sets(), rng.New(7))
	ix, err := core.NewIndex(c, reps, core.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Loaded{Index: ix, Model: m, Close: closeFn}, nil, Config{Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestV1V2ServeByteIdentical runs the serving oracle with every round on the
// committed v1 model (nothing writes v1 any more): each server must hold its
// v2 twin's model bit for bit and answer byte-identically. What the oracle
// cannot see is where phi lives: a v2 server serves it from the mapping, a
// v1 server from the heap.
func TestV1V2ServeByteIdentical(t *testing.T) {
	serveOracle(t, 2001, 1, func(v *variant) { v.v1 = 1 })
	models := oracleModels(t)
	fx := drawFixture(rng.New(1))
	for v1, frozen := range []bool{true, false} {
		d := deploy(t, fx, models, variant{v1: v1})
		got := d.servers[0].cur.Load().model.Phi.Frozen()
		d.close()
		if got != frozen {
			t.Fatalf("v1=%d: phi frozen %v, want %v", v1, got, frozen)
		}
	}
}

// TestReloadV2UsesMmapNotDecode pins the other tentpole acceptance
// criterion: /admin/reload of a v2 snapshot goes through the mmap loader —
// O(sections), no payload re-decode — and installs a mapping-aliased model.
func TestReloadV2UsesMmapNotDecode(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	v2path := filepath.Join(dir, "model.ibsnap")
	if err := snapshot.Atomic(v2path, m.Save); err != nil {
		t.Fatal(err)
	}
	s := serverOverModelFile(t, v2path)
	s.load = func(context.Context) (Loaded, error) {
		mm, closeFn, err := lda.LoadFile(v2path)
		if err != nil {
			return Loaded{}, err
		}
		c := testCorpus()
		reps := mm.Representations(c.Sets(), rng.New(7))
		ix, err := core.NewIndex(c, reps, core.Cosine)
		if err != nil {
			_ = closeFn()
			return Loaded{}, err
		}
		return Loaded{Index: ix, Model: mm, Close: closeFn}, nil
	}
	mmap0 := counterValue("snapshot_mmap_loads_total")
	fallback0 := counterValue("snapshot_map_fallback_loads_total")
	if w := fetch(s.Handler(), http.MethodPost, "/admin/reload", ""); w.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", w.Code, w.Body)
	}
	mmapDelta := counterValue("snapshot_mmap_loads_total") - mmap0
	fallbackDelta := counterValue("snapshot_map_fallback_loads_total") - fallback0
	if mmapDelta+fallbackDelta != 1 {
		t.Fatalf("reload opened %d mmap + %d fallback containers, want exactly 1 total", mmapDelta, fallbackDelta)
	}
	st := s.cur.Load()
	if !st.model.Phi.Frozen() {
		t.Fatal("reloaded generation is not serving from a frozen (mapping-aliased) phi")
	}
	// A post-reload query must serve fine off the new mapping.
	if w := fetch(s.Handler(), http.MethodGet, "/v1/similar/3?k=3", ""); w.Code != http.StatusOK {
		t.Fatalf("post-reload query: %d", w.Code)
	}
}

// TestGenerationCloseDeferredUntilRelease pins the mapped-generation
// lifetime rule: a reload must not close (munmap) the old generation while
// a request still holds it; the close runs when the last holder releases.
func TestGenerationCloseDeferredUntilRelease(t *testing.T) {
	var closed atomic.Int32
	s, ix, m := newTestServer(t, Config{})
	// Rebuild the initial generation with a close recorder.
	first := &state{ix: ix, model: m, gen: 1,
		close: func() error { closed.Add(1); return nil }}
	first.refs.Store(1)
	s.cur.Store(first)
	s.load = func(context.Context) (Loaded, error) {
		return Loaded{Index: ix, Model: m}, nil
	}
	// Simulate an in-flight request: take a reference like limited() does.
	held := s.current()
	if held != first {
		t.Fatal("current() did not return the installed generation")
	}

	if w := fetch(s.Handler(), http.MethodPost, "/admin/reload", ""); w.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", w.Code, w.Body)
	}
	if got := closed.Load(); got != 0 {
		t.Fatalf("old generation closed %d times while a request still held it", got)
	}
	// The request finishes: the deferred close must fire now, exactly once.
	held.release()
	if got := closed.Load(); got != 1 {
		t.Fatalf("old generation closed %d times after final release, want 1", got)
	}
	// A dead generation must refuse new references (the use-after-munmap
	// guard), while the live one keeps serving.
	if first.acquire() {
		t.Fatal("acquire succeeded on a closed generation")
	}
	if w := fetch(s.Handler(), http.MethodGet, "/v1/similar/1?k=2", ""); w.Code != http.StatusOK {
		t.Fatalf("query after generation swap: %d", w.Code)
	}
}

// TestServerCloseReleasesGeneration covers shutdown: Close drops the
// current generation's birth reference (unmapping a v2 model) and is safe
// to call twice.
func TestServerCloseReleasesGeneration(t *testing.T) {
	var closed atomic.Int32
	s, ix, m := newTestServer(t, Config{})
	gen := &state{ix: ix, model: m, gen: 1,
		close: func() error { closed.Add(1); return nil }}
	gen.refs.Store(1)
	s.cur.Store(gen)
	s.Close()
	s.Close()
	if got := closed.Load(); got != 1 {
		t.Fatalf("generation closed %d times across double Close, want 1", got)
	}
}
