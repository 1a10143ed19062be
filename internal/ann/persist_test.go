package ann

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// fixtureIndex trains the small deterministic index the committed testdata
// fixture was written from. Do not change its parameters without
// regenerating the fixture (ANN_REGEN_FIXTURES=1) and calling the format
// break out in the PR.
func fixtureIndex(t *testing.T) *Index {
	t.Helper()
	g := rng.New(5)
	reps := mat.New(40, 4)
	for i := range reps.Data {
		reps.Data[i] = g.Float64()
	}
	ix, err := Build(reps, core.Cosine, BuildConfig{Cells: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestSaveLoadRoundTrip pins the mmap contract: a loaded index is
// gob-byte-identical to the one saved (the mapped flag and frozen centroid
// backing are runtime state, not model state), routes identically, and its
// centroids reject writes while the mapping is live.
func TestSaveLoadRoundTrip(t *testing.T) {
	ix := fixtureIndex(t)
	path := filepath.Join(t.TempDir(), "index.ibsnap")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, closeFn, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Mapped() {
		t.Error("LoadFile index does not report Mapped")
	}
	if !loaded.Centroids.Frozen() {
		t.Error("mmap-backed centroids must be frozen (they may alias a PROT_READ mapping)")
	}
	if !bytes.Equal(gobBytes(t, ix), gobBytes(t, loaded)) {
		t.Fatal("loaded index is not gob-identical to the saved one")
	}
	// Routing through the mapping must equal routing through the heap copy.
	q := [][]float64{ix.Centroids.Row(2)}
	heapPool := (&Router{Index: ix, NProbe: 2}).Candidates(q)
	mapPool := (&Router{Index: loaded, NProbe: 2}).Candidates(q)
	if len(heapPool) != len(mapPool) {
		t.Fatalf("mmap router probed %d cells, heap router %d", len(mapPool), len(heapPool))
	}
	for i := range heapPool {
		if len(heapPool[i]) != len(mapPool[i]) {
			t.Fatal("mmap router pool differs from heap router pool")
		}
		for j := range heapPool[i] {
			if heapPool[i][j] != mapPool[i][j] {
				t.Fatal("mmap router pool differs from heap router pool")
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("writing a frozen mmap-backed centroid matrix did not panic")
			}
		}()
		loaded.Centroids.Set(0, 0, 1)
	}()
	if err := closeFn(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestLoadFileRejectsCorruption checks the structural validation: a
// container whose postings cannot safely drive candidate ids into the scans
// must be refused at load, not crash a query later.
func TestLoadFileRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, ix *Index) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := ix.SaveFile(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// setMetric rewrites the container at p with metric in the meta section's
	// metric slot, every other byte as SaveFile wrote it.
	setMetric := func(p string, metric uint64) {
		t.Helper()
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.OpenV2(raw)
		if err != nil {
			t.Fatal(err)
		}
		b := snapshot.NewBuilder(Kind)
		for _, name := range []string{sectionMeta, sectionCentroids, sectionOffsets, sectionIDs} {
			data, err := f.Section(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == sectionMeta {
				data = bytes.Clone(data)
				binary.LittleEndian.PutUint64(data[24:], metric)
			}
			if err := b.AddSection(name, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.WriteFile(p); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		mutate func(ix *Index)
	}{
		{"ids-not-ascending", func(ix *Index) {
			c := 0
			for ix.Offsets[c+1]-ix.Offsets[c] < 2 {
				c++
			}
			lo := ix.Offsets[c]
			ix.IDs[lo], ix.IDs[lo+1] = ix.IDs[lo+1], ix.IDs[lo]
		}},
		{"id-out-of-range", func(ix *Index) { ix.IDs[0] = int64(ix.N) }},
		{"negative-id", func(ix *Index) { ix.IDs[len(ix.IDs)-1] = -1 }},
		{"offsets-not-anchored", func(ix *Index) { ix.Offsets[0] = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := fixtureIndex(t)
			tc.mutate(ix)
			p := save(tc.name+".ibsnap", ix)
			if _, _, err := LoadFile(p); err == nil {
				t.Fatal("LoadFile accepted a corrupt index")
			}
		})
	}
	// Cosine (0) is the only metric an index has; 1 is the slot's value for
	// the distance metric indexes once had besides it. The rewrite itself
	// keeps a file loadable.
	p := save("cosine-metric.ibsnap", fixtureIndex(t))
	setMetric(p, 0)
	if _, closeFn, err := LoadFile(p); err != nil {
		t.Fatalf("a rewritten cosine index does not load: %v", err)
	} else if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	for name, metric := range map[string]uint64{"bad-metric": 99, "euclidean-metric": 1} {
		t.Run(name, func(t *testing.T) {
			p := save(name+".ibsnap", fixtureIndex(t))
			setMetric(p, metric)
			if _, _, err := LoadFile(p); err == nil {
				t.Fatalf("LoadFile accepted an index whose metric slot reads %d", metric)
			}
		})
	}
	// Wrong container kind.
	p = filepath.Join(dir, "wrong-kind.ibsnap")
	b := snapshot.NewBuilder("company-model")
	if err := b.AddSection(sectionMeta, make([]byte, metaLen)); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(p); err == nil {
		t.Fatal("LoadFile accepted a container of the wrong kind")
	}
	// Truncated meta section.
	p = filepath.Join(dir, "short-meta.ibsnap")
	b = snapshot.NewBuilder(Kind)
	if err := b.AddSection(sectionMeta, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(p); err == nil {
		t.Fatal("LoadFile accepted a truncated meta section")
	}
	// Missing file surfaces the mapping error.
	if _, _, err := LoadFile(filepath.Join(dir, "does-not-exist.ibsnap")); err == nil {
		t.Fatal("LoadFile invented an index for a missing file")
	}
}

// TestFingerprintDetectsChange pins the staleness check ibserve relies on:
// any change to the representations — shape or a single value — changes the
// fingerprint, and re-hashing the same matrix does not.
func TestFingerprintDetectsChange(t *testing.T) {
	g := rng.New(3)
	reps := mat.New(30, 4)
	for i := range reps.Data {
		reps.Data[i] = g.Float64()
	}
	fp := Fingerprint(reps)
	if Fingerprint(reps) != fp {
		t.Fatal("Fingerprint is not deterministic")
	}
	alt := reps.Clone()
	alt.Data[17] += 1e-12
	if Fingerprint(alt) == fp {
		t.Error("Fingerprint missed a single-value change")
	}
	if Fingerprint(mat.FromSlice(15, 8, reps.Data)) == fp {
		t.Error("Fingerprint missed a reshape of the same payload")
	}
}

// TestCompatFixture is the gate scripts/check_snapshot_compat.sh runs for
// the ANN container: the committed fixture must keep loading through
// today's reader, and today's deterministic trainer must still reproduce
// it byte-for-byte.
func TestCompatFixture(t *testing.T) {
	loaded, closeFn, err := LoadFile(filepath.Join("testdata", "index_v2.ibsnap"))
	if err != nil {
		t.Fatalf("committed ANN fixture no longer loads: %v", err)
	}
	defer closeFn()
	if loaded.Cells() != 5 || loaded.Dim() != 4 || loaded.N != 40 {
		t.Fatalf("fixture decoded to cells=%d dim=%d n=%d, want 5x4 over 40", loaded.Cells(), loaded.Dim(), loaded.N)
	}
	if !bytes.Equal(gobBytes(t, fixtureIndex(t)), gobBytes(t, loaded)) {
		t.Fatal("fixtureIndex no longer reproduces the committed fixture (training determinism broke?)")
	}
}

// TestRegenerateFixture rewrites the committed fixture when
// ANN_REGEN_FIXTURES=1 is set. Run only on a deliberate format or trainer
// change; commit the result.
func TestRegenerateFixture(t *testing.T) {
	if os.Getenv("ANN_REGEN_FIXTURES") != "1" {
		t.Skip("set ANN_REGEN_FIXTURES=1 to rewrite the testdata fixture")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fixtureIndex(t).SaveFile(filepath.Join("testdata", "index_v2.ibsnap")); err != nil {
		t.Fatal(err)
	}
}
