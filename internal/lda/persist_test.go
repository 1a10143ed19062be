package lda

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
	"repro/internal/snapshot"
)

// fixtureModel trains the small deterministic model behind both the
// in-test property checks and the committed testdata fixtures. Do not
// change its parameters: the fixtures pin the on-disk formats.
func fixtureModel(t *testing.T) *Model {
	t.Helper()
	g := rng.New(42)
	docs := make([][]int, 30)
	for d := range docs {
		doc := make([]int, 12)
		for i := range doc {
			if d%2 == 0 {
				doc[i] = g.Intn(4)
			} else {
				doc[i] = 4 + g.Intn(4)
			}
		}
		docs[d] = doc
	}
	m, err := Train(Config{Topics: 3, V: 8, BurnIn: 10, Iterations: 30}, docs, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func gobBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(gobModel{
		K: m.K, V: m.V, Alpha: m.Alpha, Beta: m.Beta,
		PhiData: m.Phi.Data, InferIters: m.InferIters,
	}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// v1Fixture is a 38-category LDA-3 model in the legacy v1 container, written
// once by the last ibtrain that could write v1 (ibgen -companies 120 -seed 9,
// then ibtrain -model lda -topics=3 -seed 1 -snapshot-format v1). Nothing
// writes v1 any more, so these bytes are the v1 side of every v1 ≡ v2 pin:
// internal/serve's and the root package's tests read the same file.
var v1Fixture = filepath.Join("testdata", "model_v1_k3v38.ibsnap")

// TestV1V2LoadIdentical is the cross-format property test: committed legacy
// v1 bytes and the v2 twin Save writes of the model they hold must load back
// to gob-byte-identical in-memory models.
func TestV1V2LoadIdentical(t *testing.T) {
	v1, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if ver, _ := snapshot.SniffVersion(v1); ver != 1 {
		t.Fatalf("v1 fixture has version %d", ver)
	}
	fromV1, err := Load(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("loading v1: %v", err)
	}
	if fromV1.K != 3 || fromV1.V != 38 {
		t.Fatalf("v1 fixture decoded to K=%d V=%d, want 3x38", fromV1.K, fromV1.V)
	}
	var v2 bytes.Buffer
	if err := fromV1.Save(&v2); err != nil {
		t.Fatal(err)
	}
	if ver, _ := snapshot.SniffVersion(v2.Bytes()); ver != snapshot.Version2 {
		t.Fatalf("Save wrote version %d, want %d", ver, snapshot.Version2)
	}
	fromV2, err := Load(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatalf("loading v2: %v", err)
	}
	if !bytes.Equal(gobBytes(t, fromV2), gobBytes(t, fromV1)) {
		t.Fatal("the v2 twin does not load to the model the v1 bytes hold")
	}
}

// TestLoadFileMapped exercises the zero-copy path: a v2 file loads through
// mmap with a frozen phi matrix, inference works against the mapping, and
// the close function releases it. The committed v1 fixture goes through the
// legacy decode with a no-op closer.
func TestLoadFileMapped(t *testing.T) {
	m := fixtureModel(t)
	dir := t.TempDir()

	v2path := filepath.Join(dir, "model_v2.ibsnap")
	if err := snapshot.Atomic(v2path, m.Save); err != nil {
		t.Fatal(err)
	}
	mapped, closeFn, err := LoadFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Phi.Frozen() {
		t.Fatal("v2 LoadFile returned a writable phi (must be frozen: it may alias a PROT_READ mapping)")
	}
	if !bytes.Equal(gobBytes(t, mapped), gobBytes(t, m)) {
		t.Fatal("mapped model is not gob-identical to the original")
	}
	// Inference (a pure read of phi) must work against the mapping, and be
	// identical to the heap-resident model's answer.
	doc := []int{0, 1, 2, 5}
	got := mapped.InferTheta(doc, rng.New(7))
	want := m.InferTheta(doc, rng.New(7))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InferTheta[%d] = %v via mmap, %v via heap", i, got[i], want[i])
		}
	}
	// Training-style mutation must be rejected loudly, and Mutable must
	// offer the copy-on-train escape.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("writing a frozen mmap-backed phi did not panic")
			}
		}()
		mapped.Phi.Set(0, 0, 1)
	}()
	writable := mapped.Phi.Mutable()
	writable.Set(0, 0, 1)
	if err := closeFn(); err != nil {
		t.Fatalf("close: %v", err)
	}

	legacy, closeLegacy, err := LoadFile(filepath.Join("testdata", "model_v1.ibsnap"))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Phi.Frozen() {
		t.Fatal("v1 LoadFile froze a heap-resident model")
	}
	if !bytes.Equal(gobBytes(t, legacy), gobBytes(t, m)) {
		t.Fatal("v1 LoadFile model is not gob-identical to the original")
	}
	if err := closeLegacy(); err != nil {
		t.Fatalf("v1 close: %v", err)
	}
}

// TestCompatFixtures round-trips the committed on-disk fixtures: the same
// model saved by both format generations at the time the v2 format was
// introduced. This is the gate scripts/check_snapshot_compat.sh runs — if
// either file stops loading, or they stop agreeing, legacy compatibility
// broke.
func TestCompatFixtures(t *testing.T) {
	v1m, closeV1, err := LoadFile(filepath.Join("testdata", "model_v1.ibsnap"))
	if err != nil {
		t.Fatalf("committed v1 fixture no longer loads: %v", err)
	}
	defer closeV1()
	v2m, closeV2, err := LoadFile(filepath.Join("testdata", "model_v2.ibsnap"))
	if err != nil {
		t.Fatalf("committed v2 fixture no longer loads: %v", err)
	}
	defer closeV2()
	if v1m.K != 3 || v1m.V != 8 {
		t.Fatalf("v1 fixture decoded to K=%d V=%d, want 3x8", v1m.K, v1m.V)
	}
	if !bytes.Equal(gobBytes(t, v1m), gobBytes(t, v2m)) {
		t.Fatal("v1 and v2 fixtures no longer load to the same model")
	}
	// The fixtures were written by fixtureModel; regenerating must be a
	// no-op unless the training algorithm itself changed (which would be a
	// determinism break caught here).
	if !bytes.Equal(gobBytes(t, fixtureModel(t)), gobBytes(t, v1m)) {
		t.Fatal("fixtureModel no longer reproduces the committed fixtures (training determinism broke?)")
	}
}

// TestRegenerateFixtures rewrites the committed v2 fixture when
// LDA_REGEN_FIXTURES=1 is set. Run it only when the fixture model's
// training parameters change deliberately; commit the result. The v1
// fixtures cannot be regenerated: nothing writes v1 any more.
func TestRegenerateFixtures(t *testing.T) {
	if os.Getenv("LDA_REGEN_FIXTURES") != "1" {
		t.Skip("set LDA_REGEN_FIXTURES=1 to rewrite the v2 testdata fixture")
	}
	m := fixtureModel(t)
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Atomic(filepath.Join("testdata", "model_v2.ibsnap"), m.Save); err != nil {
		t.Fatal(err)
	}
}
