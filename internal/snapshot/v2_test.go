package snapshot

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// buildTestV2 assembles a representative container: a float64 matrix, raw
// metadata bytes and an int64 id column.
func buildTestV2(t *testing.T) (*Builder, []float64, []int64) {
	t.Helper()
	f64 := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	ids := []int64{3, 7, 40, 1000, 999999}
	b := NewBuilder("test-kind")
	if err := b.AddSection("meta", []byte(`{"k":2,"v":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFloat64("phi", f64); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInt64("ids", ids); err != nil {
		t.Fatal(err)
	}
	return b, f64, ids
}

func checkV2Contents(t *testing.T, f *File, f64 []float64, ids []int64) {
	t.Helper()
	if f.Kind() != "test-kind" {
		t.Fatalf("kind = %q, want test-kind", f.Kind())
	}
	meta, err := f.Section("meta")
	if err != nil {
		t.Fatal(err)
	}
	if string(meta) != `{"k":2,"v":3}` {
		t.Fatalf("meta section = %q", meta)
	}
	gf64, err := f.Float64Section("phi")
	if err != nil {
		t.Fatal(err)
	}
	if len(gf64) != len(f64) {
		t.Fatalf("phi has %d values, want %d", len(gf64), len(f64))
	}
	for i, v := range f64 {
		if gf64[i] != v && !(math.IsNaN(v) && math.IsNaN(gf64[i])) {
			t.Fatalf("phi[%d] = %v, want %v", i, gf64[i], v)
		}
	}
	gids, err := f.Int64Section("ids")
	if err != nil {
		t.Fatal(err)
	}
	if len(gids) != len(ids) {
		t.Fatalf("ids has %d values, want %d", len(gids), len(ids))
	}
	for i, id := range ids {
		if gids[i] != id {
			t.Fatalf("ids[%d] = %d, want %d", i, gids[i], id)
		}
	}
	for i, ok := range f.verified {
		if !ok {
			t.Fatalf("section %q was read but its CRC never checked", f.sections[i].Name)
		}
	}
}

func TestV2RoundTripInMemory(t *testing.T) {
	b, f64, ids := buildTestV2(t)
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if v, err := SniffVersion(buf.Bytes()); err != nil || v != Version2 {
		t.Fatalf("SniffVersion = %d, %v; want %d, nil", v, err, Version2)
	}
	f, err := OpenV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Mapped() {
		t.Fatal("in-memory open claims to be mapped")
	}
	checkV2Contents(t, f, f64, ids)
}

func TestV2MapRoundTrip(t *testing.T) {
	b, f64, ids := buildTestV2(t)
	path := filepath.Join(t.TempDir(), "model.ibsnap")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if v, err := FileVersion(path); err != nil || v != Version2 {
		t.Fatalf("FileVersion = %d, %v; want %d, nil", v, err, Version2)
	}
	f, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	checkV2Contents(t, f, f64, ids)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestV2MapZeroCopy proves the mmap loader aliases the mapping rather than
// copying: the float64 slice must point inside the mapped region.
func TestV2MapZeroCopy(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy aliasing requires a little-endian host")
	}
	b, f64, _ := buildTestV2(t)
	path := filepath.Join(t.TempDir(), "model.ibsnap")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Mapped() {
		t.Skip("mmap unavailable on this filesystem; fallback path exercised elsewhere")
	}
	vals, err := f.Float64Section("phi")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.Section("phi")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(f64) {
		t.Fatalf("got %d values, want %d", len(vals), len(f64))
	}
	// Same backing memory: writing through is impossible (PROT_READ), but the
	// addresses must coincide.
	if got, want := unsafe.Pointer(&vals[0]), unsafe.Pointer(&raw[0]); got != want {
		t.Fatalf("Float64Section copied: slice base %p, section base %p", got, want)
	}
}

func TestV2SectionAlignment(t *testing.T) {
	b := NewBuilder("align-kind")
	// Deliberately odd-length sections to force padding.
	if err := b.AddSection("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFloat64("b", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSection("c", []byte("yyy")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := OpenV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, sec := range f.sections {
		if sec.Offset%8 != 0 {
			t.Fatalf("section %q at unaligned offset %d", sec.Name, sec.Offset)
		}
	}
	if got, _ := f.Section("c"); string(got) != "yyy" {
		t.Fatalf("section c = %q", got)
	}
}

func TestV2CorruptionDetection(t *testing.T) {
	b, _, _ := buildTestV2(t)
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("truncated header", func(t *testing.T) {
		if _, err := OpenV2(valid[:10]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] = 'X'
		if _, err := OpenV2(bad); !errors.Is(err, ErrNotSnapshot) {
			t.Fatalf("err = %v, want ErrNotSnapshot", err)
		}
	})
	t.Run("flipped table bit", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[20] ^= 0x40 // inside the section table
		if _, err := OpenV2(bad); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrNotSnapshot) {
			t.Fatalf("err = %v, want an integrity error", err)
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[len(bad)-5] ^= 0x01 // inside the last section's payload
		f, err := OpenV2(bad)
		if err != nil {
			t.Fatalf("open (header intact) should succeed, got %v", err)
		}
		defer f.Close()
		if _, err := f.Int64Section("ids"); !errors.Is(err, ErrChecksum) {
			t.Fatalf("Int64Section = %v, want ErrChecksum", err)
		}
		if _, err := f.Section("meta"); err != nil {
			t.Fatalf("an intact section should still read: %v", err)
		}
	})
	t.Run("flipped payload bit through Map", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[len(bad)-5] ^= 0x01
		path := filepath.Join(t.TempDir(), "bad.ibsnap")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Map(path)
		if err != nil {
			t.Fatalf("map (header intact) should succeed, got %v", err)
		}
		defer f.Close()
		if _, err := f.Section("ids"); !errors.Is(err, ErrChecksum) {
			t.Fatalf("Section = %v, want ErrChecksum", err)
		}
	})
	t.Run("v1 reader rejects v2 with VersionError", func(t *testing.T) {
		var ve *VersionError
		err := Read(bytes.NewReader(valid), "test-kind", func(r io.Reader) error { return nil })
		if !errors.As(err, &ve) || ve.Got != Version2 {
			t.Fatalf("v1 Read of v2 file = %v, want VersionError{2}", err)
		}
	})
	t.Run("v2 opener rejects v1", func(t *testing.T) {
		var v1 bytes.Buffer
		if err := Write(&v1, "test-kind", func(w io.Writer) error {
			_, err := w.Write([]byte("payload"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenV2(v1.Bytes()); err == nil {
			t.Fatal("OpenV2 accepted a v1 container")
		}
	})
}

func TestV2EmptyAndMissingSections(t *testing.T) {
	b := NewBuilder("edge-kind")
	if err := b.AddFloat64("empty", nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := OpenV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	vals, err := f.Float64Section("empty")
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty section = %v, %v", vals, err)
	}
	if _, err := f.Section("absent"); err == nil {
		t.Fatal("Section(absent) succeeded")
	}
}

func TestV2BuilderRejects(t *testing.T) {
	b := NewBuilder("k")
	if err := b.AddSection("dup", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSection("dup", []byte("b")); err == nil {
		t.Fatal("duplicate section accepted")
	}
	if err := b.AddSection("", []byte("a")); err == nil {
		t.Fatal("empty section name accepted")
	}
}

// TestAtomicInstallsReadableMode pins the fix for Atomic installing
// os.CreateTemp's 0600 temp file over the destination: fresh files get
// 0644, and overwrites preserve the destination's existing mode.
func TestAtomicInstallsReadableMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	writeBody := func(w io.Writer) error {
		_, err := w.Write([]byte("content\n"))
		return err
	}
	if err := Atomic(path, writeBody); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Mode().Perm(); got != 0o644 {
		t.Fatalf("fresh install mode = %o, want 0644", got)
	}
	// Overwriting keeps the destination's existing (tighter) mode.
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := Atomic(path, writeBody); err != nil {
		t.Fatal(err)
	}
	st, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Mode().Perm(); got != 0o600 {
		t.Fatalf("overwrite mode = %o, want preserved 0600", got)
	}
}
