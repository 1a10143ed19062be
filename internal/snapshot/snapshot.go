// Package snapshot owns every file the binaries write: the checksummed
// container of every model Save/Load path and the trainers' checkpoint
// files, and the one crash-safe write that places it and every other output
// (corpora, metrics and trace dumps, load reports, charts). It solves two
// independent problems:
//
//   - Integrity: a gob-encoded payload is wrapped in a small versioned
//     header (magic, format version, model kind, payload length, CRC-32C) so
//     that a loader can distinguish "truncated file", "bit-flipped payload",
//     "wrong model kind" and "file from a future version" with precise
//     errors instead of surfacing cryptic gob failures. Write and Read are
//     the one v1 codec: callers hand them the value to encode or decode.
//     Write refuses a payload type that holds a map: gob writes a map in
//     Go's random iteration order, so the same value would give different
//     bytes on every write.
//
//   - Atomicity: Atomic places a file by writing to a temporary sibling,
//     fsyncing it, renaming it over the destination and fsyncing the
//     directory, so a crash (even kill -9) mid-save either preserves the old
//     file or installs the complete new one — never a torn file.
//
// Container layout (all integers big-endian):
//
//	offset  size  field
//	0       6     magic "IBSNAP"
//	6       2     format version (currently 1)
//	8       2     kind length n
//	10      n     kind (e.g. "lda-model", "lstm-checkpoint")
//	10+n    8     payload length m
//	18+n    4     CRC-32C (Castagnoli) of the payload
//	22+n    m     payload
//
// Version policy: the version is bumped only for incompatible header layout
// changes; payload evolution is the owning package's concern (each payload
// is one gob value, which carries its own structure). Readers reject
// versions newer than they understand rather than guessing.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/obs"
)

// Version is the container format version this package writes.
const Version = 1

var magic = [6]byte{'I', 'B', 'S', 'N', 'A', 'P'}

// maxKindLen bounds the kind string so a corrupt length field cannot drive
// a huge allocation.
const maxKindLen = 256

var (
	writesTotal = obs.Default().Counter("snapshot_writes_total",
		"snapshot containers written (models, checkpoints, corpora)")
	readsTotal = obs.Default().Counter("snapshot_reads_total",
		"snapshot containers read and verified successfully")
	corruptionsTotal = obs.Default().Counter("snapshot_corruptions_total",
		"snapshot reads rejected as truncated, bit-flipped or malformed")
	checkpointWrites = obs.Default().Counter("checkpoint_writes_total",
		"training checkpoints written (snapshot kinds ending in -checkpoint)")
	checkpointReads = obs.Default().Counter("checkpoint_resumes_total",
		"training checkpoints read back for resume")
)

// Sentinel errors, matchable with errors.Is. Reads that fail integrity
// checks always wrap one of these (or *KindError / *VersionError).
var (
	// ErrNotSnapshot reports that the stream does not start with the
	// container magic — it is some other file format entirely.
	ErrNotSnapshot = errors.New("snapshot: bad magic (not a snapshot file)")
	// ErrTruncated reports that the stream ended before the declared
	// header or payload length was read.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrChecksum reports that the payload bytes do not match the header
	// checksum (bit flips, torn writes that somehow kept the length).
	ErrChecksum = errors.New("snapshot: payload checksum mismatch")
)

// KindError reports a container holding a different kind of payload than
// the reader asked for (e.g. loading an LSTM file as an LDA model).
type KindError struct {
	Want, Got string
}

func (e *KindError) Error() string {
	return fmt.Sprintf("snapshot: kind mismatch: file holds %q, want %q", e.Got, e.Want)
}

// VersionError reports a container written by a future format version.
type VersionError struct {
	Got uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d is newer than supported version %d", e.Got, Version)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Write serializes one container to w: v gob-encoded as the payload,
// wrapped in the versioned, checksummed header. The payload is buffered in
// memory to compute its length and CRC before any header byte is emitted.
// A payload whose type holds a map is refused (see mapIn).
func Write(w io.Writer, kind string, v any) error {
	if kind == "" || len(kind) > maxKindLen {
		return fmt.Errorf("snapshot: invalid kind %q", kind)
	}
	if at := mapIn(reflect.TypeOf(v), fmt.Sprintf("%T", v), map[reflect.Type]bool{}); at != "" {
		return fmt.Errorf("snapshot: %s payload holds a map at %s; gob writes maps in random order, so encode it as a sorted slice", kind, at)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("snapshot: encoding %s payload: %w", kind, err)
	}
	hdr := make([]byte, 0, 22+len(kind))
	hdr = append(hdr, magic[:]...)
	hdr = binary.BigEndian.AppendUint16(hdr, Version)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(kind)))
	hdr = append(hdr, kind...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(payload.Len()))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.Checksum(payload.Bytes(), crcTable))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("snapshot: writing %s header: %w", kind, err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("snapshot: writing %s payload: %w", kind, err)
	}
	writesTotal.Inc()
	if strings.HasSuffix(kind, "-checkpoint") {
		checkpointWrites.Inc()
	}
	return nil
}

// mapIn returns where type t, reached by path, holds a map, or "" when it
// holds none. It walks what gob encodes: pointers, slices, arrays and the
// exported fields of structs. An interface's dynamic type is not known here
// and is not walked.
func mapIn(t reflect.Type, path string, seen map[reflect.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Map:
		return path + " (" + t.String() + ")"
	case reflect.Pointer:
		return mapIn(t.Elem(), path, seen)
	case reflect.Slice, reflect.Array:
		return mapIn(t.Elem(), path+"[]", seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				if at := mapIn(f.Type, path+"."+f.Name, seen); at != "" {
					return at
				}
			}
		}
	}
	return ""
}

// readHeader parses and validates everything up to the payload. It returns
// the kind, payload length and expected CRC.
func readHeader(r io.Reader) (kind string, payloadLen uint64, crc uint32, err error) {
	var fixed [10]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return "", 0, 0, corrupt(fmt.Errorf("%w: header: %v", ErrTruncated, err))
	}
	if !bytes.Equal(fixed[:6], magic[:]) {
		return "", 0, 0, corrupt(ErrNotSnapshot)
	}
	if v := binary.BigEndian.Uint16(fixed[6:8]); v > Version {
		return "", 0, 0, corrupt(&VersionError{Got: v})
	}
	kindLen := int(binary.BigEndian.Uint16(fixed[8:10]))
	if kindLen == 0 || kindLen > maxKindLen {
		return "", 0, 0, corrupt(fmt.Errorf("snapshot: invalid kind length %d: %w", kindLen, ErrNotSnapshot))
	}
	rest := make([]byte, kindLen+12)
	if _, err := io.ReadFull(r, rest); err != nil {
		return "", 0, 0, corrupt(fmt.Errorf("%w: header: %v", ErrTruncated, err))
	}
	kind = string(rest[:kindLen])
	payloadLen = binary.BigEndian.Uint64(rest[kindLen : kindLen+8])
	crc = binary.BigEndian.Uint32(rest[kindLen+8:])
	return kind, payloadLen, crc, nil
}

// corrupt counts one rejected read and passes the error through.
func corrupt(err error) error {
	corruptionsTotal.Inc()
	return err
}

// Read verifies one container from r and gob-decodes its payload into v (a
// pointer; nil discards the value). The expected kind must match the file's
// kind exactly; the payload is fully read and checksummed before the decoder
// sees a single byte, so it never observes truncated or bit-flipped input.
func Read(r io.Reader, kind string, v any) error {
	got, payloadLen, crc, err := readHeader(r)
	if err != nil {
		return err
	}
	if got != kind {
		return &KindError{Want: kind, Got: got}
	}
	// Read exactly payloadLen bytes. LimitReader + ReadAll avoids trusting
	// a corrupt length field with a single huge allocation only up to the
	// actual stream size.
	payload, err := io.ReadAll(io.LimitReader(r, int64(payloadLen)))
	if err != nil {
		return corrupt(fmt.Errorf("%w: payload: %v", ErrTruncated, err))
	}
	if uint64(len(payload)) != payloadLen {
		return corrupt(fmt.Errorf("%w: payload is %d bytes, header declares %d",
			ErrTruncated, len(payload), payloadLen))
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return corrupt(ErrChecksum)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("snapshot: decoding %s payload: %w", kind, err)
	}
	readsTotal.Inc()
	if strings.HasSuffix(kind, "-checkpoint") {
		checkpointReads.Inc()
	}
	return nil
}

// ReadKind returns the kind recorded in a container header without reading
// the payload. Use it to dispatch a file of unknown model family.
func ReadKind(r io.Reader) (string, error) {
	kind, _, _, err := readHeader(r)
	return kind, err
}

// FileKind returns the kind recorded in the container at path.
func FileKind(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return ReadKind(f)
}

// Atomic writes whatever write produces to path crash-safely: the bytes go
// to a temporary file in the same directory, which is fsynced, closed and
// renamed over path, and the directory is fsynced so the rename itself is
// durable. A crash at any point leaves either the old file or the complete
// new one. It is the one function that places a file: the content need not
// be a snapshot container (corpora are JSONL, metrics and trace dumps JSON).
func Atomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("snapshot: fsyncing %s: %w", tmpName, err)
	}
	// os.CreateTemp makes the file 0600; installing that over the
	// destination would silently tighten perms on every artifact and ignore
	// the umask. Match an existing destination's mode, or default to 0644.
	mode := os.FileMode(0o644)
	if st, statErr := os.Stat(path); statErr == nil {
		mode = st.Mode().Perm()
	}
	if err = tmp.Chmod(mode); err != nil {
		return fmt.Errorf("snapshot: setting mode on %s: %w", tmpName, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmpName, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("snapshot: renaming into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Platforms whose directory handles reject Sync (e.g. Windows) are not made
// to fail the write for it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: opening directory for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("snapshot: fsyncing directory %s: %w", dir, err)
	}
	return nil
}
