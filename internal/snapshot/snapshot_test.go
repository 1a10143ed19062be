package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func container(t *testing.T, kind string, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, kind, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	payload := []byte("the payload \x00\x01\x02 with binary bytes")
	b := container(t, "test-model", payload)
	var got []byte
	if err := Read(bytes.NewReader(b), "test-model", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
}

func TestEmptyPayloadRoundTrips(t *testing.T) {
	b := container(t, "test-model", nil)
	var got []byte
	if err := Read(bytes.NewReader(b), "test-model", &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("want empty payload, got %d bytes", len(got))
	}
}

func TestKindMismatch(t *testing.T) {
	b := container(t, "lda-model", []byte("x"))
	err := Read(bytes.NewReader(b), "lstm-model", nil)
	var ke *KindError
	if !errors.As(err, &ke) {
		t.Fatalf("want KindError, got %v", err)
	}
	if ke.Got != "lda-model" || ke.Want != "lstm-model" {
		t.Fatalf("KindError fields: %+v", ke)
	}
	if !strings.Contains(err.Error(), "lda-model") {
		t.Fatalf("error should name the actual kind: %v", err)
	}
}

func TestNotSnapshot(t *testing.T) {
	for _, b := range [][]byte{
		[]byte("{\"format\":\"installbase-corpus/v1\"}\n"),
		[]byte("GOBGOBGOBGOB"),
		bytes.Repeat([]byte{0}, 64),
	} {
		err := Read(bytes.NewReader(b), "x", nil)
		if !errors.Is(err, ErrNotSnapshot) {
			t.Fatalf("want ErrNotSnapshot for %q, got %v", b[:6], err)
		}
	}
}

func TestTruncationDetectedAtEveryLength(t *testing.T) {
	b := container(t, "test-model", []byte("some payload that is long enough to truncate"))
	for n := 0; n < len(b); n++ {
		err := Read(bytes.NewReader(b[:n]), "test-model", nil)
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes not detected", n, len(b))
		}
		// Every prefix must fail with a structured error, not a decode
		// error: magic/kind prefixes give ErrTruncated, a cut inside the
		// payload gives ErrTruncated, never a clean read.
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrNotSnapshot) {
			t.Fatalf("truncation to %d bytes: unexpected error %v", n, err)
		}
	}
}

func TestBitFlipDetectedEverywhere(t *testing.T) {
	payload := []byte("bit flip target payload")
	orig := container(t, "test-model", payload)
	for i := 0; i < len(orig); i++ {
		b := append([]byte(nil), orig...)
		b[i] ^= 0x40
		var got []byte
		err := Read(bytes.NewReader(b), "test-model", &got)
		if err == nil {
			t.Fatalf("bit flip at byte %d not detected", i)
		}
	}
}

func TestFutureVersionRejected(t *testing.T) {
	b := container(t, "test-model", []byte("x"))
	b[6], b[7] = 0xff, 0xff // version field
	err := Read(bytes.NewReader(b), "test-model", nil)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want VersionError, got %v", err)
	}
	if ve.Got != 0xffff {
		t.Fatalf("VersionError.Got = %d", ve.Got)
	}
}

func TestReadKind(t *testing.T) {
	b := container(t, "gru-checkpoint", []byte("payload"))
	kind, err := ReadKind(bytes.NewReader(b))
	if err != nil || kind != "gru-checkpoint" {
		t.Fatalf("ReadKind = %q, %v", kind, err)
	}
}

func TestWriteRejectsBadKind(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "", []byte(nil)); err == nil {
		t.Fatal("empty kind accepted")
	}
	if err := Write(&buf, strings.Repeat("k", maxKindLen+1), []byte(nil)); err == nil {
		t.Fatal("oversized kind accepted")
	}
}

func TestEncodeErrorWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	err := Write(&buf, "test-model", make(chan int)) // gob cannot encode a channel
	if err == nil || !strings.Contains(err.Error(), "encoding test-model payload") {
		t.Fatalf("want encode error surfaced, got %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("failed encode still wrote %d bytes", buf.Len())
	}
}

// readFile verifies the container at path and decodes its payload into v,
// the way the binaries read a file: open it, Read it, and annotate a failure
// with the path.
func readFile(t *testing.T, path, kind string, v any) error {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := Read(f, kind, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// TestWriteFileReadFile places a container with Atomic + Write and reads it
// back with Read.
func TestWriteFileReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.snap")
	payload := []byte("file payload")
	if err := Atomic(path, func(w io.Writer) error { return Write(w, "test-model", payload) }); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := readFile(t, path, "test-model", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch through file round trip")
	}
	if kind, err := FileKind(path); err != nil || kind != "test-model" {
		t.Fatalf("FileKind = %q, %v", kind, err)
	}
}

// TestReadFileAnnotatesPath reads a plain file that is no container: the
// error names the file, and ErrNotSnapshot survives the annotation.
func TestReadFileAnnotatesPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.snap")
	if err := Atomic(path, raw("not a snapshot at all")); err != nil {
		t.Fatal(err)
	}
	err := readFile(t, path, "test-model", nil)
	if err == nil || !strings.Contains(err.Error(), "m.snap") {
		t.Fatalf("error should carry the path: %v", err)
	}
	if !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("want ErrNotSnapshot through the wrap, got %v", err)
	}
}

// raw returns an Atomic body writing s verbatim.
func raw(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func TestAtomicPreservesOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")
	if err := Atomic(path, raw("good old content")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("mid-write crash")
	err := Atomic(path, func(w io.Writer) error {
		w.Write([]byte("partial new"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want write error surfaced, got %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good old content" {
		t.Fatalf("old file clobbered: %q", got)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestAtomicCreatesFreshFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.snap")
	if err := Atomic(path, raw("v1")); err != nil {
		t.Fatal(err)
	}
	if err := Atomic(path, raw("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
}

func TestCheckpointKindsCounted(t *testing.T) {
	before := checkpointWrites.Value()
	b := container(t, "lda-checkpoint", []byte("ck"))
	if checkpointWrites.Value() != before+1 {
		t.Fatal("checkpoint write not counted")
	}
	beforeReads := checkpointReads.Value()
	if err := Read(bytes.NewReader(b), "lda-checkpoint", nil); err != nil {
		t.Fatal(err)
	}
	if checkpointReads.Value() != beforeReads+1 {
		t.Fatal("checkpoint resume not counted")
	}
}

func TestCorruptionCounted(t *testing.T) {
	before := corruptionsTotal.Value()
	b := container(t, "test-model", []byte("payload"))
	b[len(b)-1] ^= 1
	Read(bytes.NewReader(b), "test-model", nil)
	if corruptionsTotal.Value() != before+1 {
		t.Fatal("corruption not counted")
	}
}

// TestWriteRefusesMaps: gob writes a map in random iteration order, so a
// payload type that holds one, however deep, is refused before a byte is
// written; map-free payloads, recursive ones included, are written.
func TestWriteRefusesMaps(t *testing.T) {
	type state struct {
		Name string
		M    []float64
	}
	type node struct {
		Next *node
		Vals []float64
	}
	type nested struct {
		Cfg  struct{ V int }
		Adam []map[string]state
	}
	for _, tc := range []struct {
		v  any
		at string // "" means written
	}{
		{map[string]int{"a": 1}, "map[string]int (map[string]int)"},
		{&nested{}, "*snapshot.nested.Adam[] (map[string]snapshot.state)"},
		{struct{ P *[2]map[int]bool }{}, ".P[] (map[int]bool)"},
		{struct{ S []state }{S: []state{{"emb", []float64{1}}}}, ""},
		{&node{Next: &node{}}, ""},
		{struct {
			V     int
			local map[int]int // unexported: gob skips it
		}{}, ""},
	} {
		var buf bytes.Buffer
		err := Write(&buf, "test-model", tc.v)
		switch {
		case tc.at == "" && err != nil:
			t.Errorf("%T: %v, want it written", tc.v, err)
		case tc.at != "" && (err == nil || !strings.Contains(err.Error(), "holds a map at ") || !strings.Contains(err.Error(), tc.at)):
			t.Errorf("%T: err %v, want a refusal naming %q", tc.v, err, tc.at)
		case tc.at != "" && buf.Len() != 0:
			t.Errorf("%T: refused, but %d bytes were written", tc.v, buf.Len())
		}
	}
}
