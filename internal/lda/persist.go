// LDA model persistence across both IBSNAP container generations.
//
// Save writes the v2 flat container: a fixed-size binary "meta" section plus
// the phi matrix as a raw little-endian float64 blob, so a loader can point
// mat.Matrix rows straight at an mmap of the file. Nothing writes the legacy
// v1 gob container any more, but Load sniffs the header version and reads
// either, and LoadFile adds the zero-copy mapped path that ibserve uses for
// startup and /admin/reload.
//
// Compatibility contract, pinned by TestV1V2LoadIdentical over committed v1
// bytes: a v1 model and its v2 twin load to gob-byte-identical Models.
package lda

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/mat"
	"repro/internal/snapshot"
)

// v2 section names and the fixed meta layout (little-endian):
// K int64, V int64, Alpha float64, Beta float64, InferIters int64.
const (
	sectionMeta = "meta"
	sectionPhi  = "phi"
	metaLen     = 40
)

// Save serializes the model as an IBSNAP v2 flat container of kind
// KindModel: O(sections) to open, mmap-aliasable phi. Readers older than
// the v2 format reject the file with a VersionError.
func (m *Model) Save(w io.Writer) error {
	b := snapshot.NewBuilder(KindModel)
	meta := make([]byte, metaLen)
	binary.LittleEndian.PutUint64(meta[0:], uint64(int64(m.K)))
	binary.LittleEndian.PutUint64(meta[8:], uint64(int64(m.V)))
	binary.LittleEndian.PutUint64(meta[16:], math.Float64bits(m.Alpha))
	binary.LittleEndian.PutUint64(meta[24:], math.Float64bits(m.Beta))
	binary.LittleEndian.PutUint64(meta[32:], uint64(int64(m.InferIters)))
	if err := b.AddSection(sectionMeta, meta); err != nil {
		return err
	}
	if err := b.AddFloat64(sectionPhi, m.Phi.Data); err != nil {
		return err
	}
	return b.Write(w)
}

// modelFromV2 decodes a parsed v2 container. When frozen is set (the mmap
// path) the phi matrix aliases the mapping read-only; otherwise it aliases
// the heap buffer and stays writable.
func modelFromV2(f *snapshot.File, frozen bool) (*Model, error) {
	if f.Kind() != KindModel {
		return nil, &snapshot.KindError{Want: KindModel, Got: f.Kind()}
	}
	meta, err := f.Section(sectionMeta)
	if err != nil {
		return nil, fmt.Errorf("lda: loading model: %w", err)
	}
	if len(meta) != metaLen {
		return nil, fmt.Errorf("lda: corrupt model meta section (%d bytes, want %d)", len(meta), metaLen)
	}
	k := int64(binary.LittleEndian.Uint64(meta[0:]))
	v := int64(binary.LittleEndian.Uint64(meta[8:]))
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(meta[16:]))
	beta := math.Float64frombits(binary.LittleEndian.Uint64(meta[24:]))
	iters := int64(binary.LittleEndian.Uint64(meta[32:]))
	if k < 1 || v < 1 || k*v > int64(math.MaxInt) || iters < 0 {
		return nil, fmt.Errorf("lda: corrupt model (K=%d, V=%d)", k, v)
	}
	phi, err := f.Float64Section(sectionPhi)
	if err != nil {
		return nil, fmt.Errorf("lda: loading model: %w", err)
	}
	if int64(len(phi)) != k*v {
		return nil, fmt.Errorf("lda: corrupt model (K=%d, V=%d, phi=%d)", k, v, len(phi))
	}
	var pm *mat.Matrix
	if frozen {
		pm = mat.FrozenFromSlice(int(k), int(v), phi)
	} else {
		pm = mat.FromSlice(int(k), int(v), phi)
	}
	return &Model{
		K: int(k), V: int(v), Alpha: alpha, Beta: beta,
		Phi: pm, InferIters: int(iters),
	}, nil
}

// Load deserializes a model from either container generation, dispatching
// on the sniffed header version: v1 gob (legacy) or v2 flat. The stream is
// fully buffered either way (v1's reader buffers the payload to checksum
// it; v2 parses in place), so Load from a reader is O(bytes) — the
// zero-copy path is LoadFile.
func Load(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("lda: loading model: %w", err)
	}
	ver, err := snapshot.SniffVersion(data)
	if err != nil {
		return nil, fmt.Errorf("lda: loading model: %w", err)
	}
	switch ver {
	case 1:
		return loadV1(bytes.NewReader(data))
	case snapshot.Version2:
		f, err := snapshot.OpenV2(data)
		if err != nil {
			return nil, fmt.Errorf("lda: loading model: %w", err)
		}
		defer f.Close()
		return modelFromV2(f, false)
	default:
		return nil, fmt.Errorf("lda: loading model: %w", &snapshot.VersionError{Got: ver})
	}
}

// LoadFile loads the model at path through the fastest route its format
// allows. A v2 container is mmapped: phi aliases the mapping (frozen
// matrix, copy-on-train via Mutable) and loading is O(sections). A v1
// container falls back to the buffered gob decode. The returned close
// function releases the mapping and must not run before every reference to
// the model's matrices is unreachable — in ibserve that is when the last
// in-flight request against the generation completes.
func LoadFile(path string) (*Model, func() error, error) {
	ver, err := snapshot.FileVersion(path)
	if err != nil {
		return nil, nil, fmt.Errorf("lda: loading %s: %w", path, err)
	}
	if ver != snapshot.Version2 {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		m, err := Load(f)
		if err != nil {
			return nil, nil, fmt.Errorf("lda: loading %s: %w", path, err)
		}
		return m, func() error { return nil }, nil
	}
	mf, err := snapshot.Map(path)
	if err != nil {
		return nil, nil, fmt.Errorf("lda: mapping %s: %w", path, err)
	}
	m, err := modelFromV2(mf, true)
	if err != nil {
		mf.Close()
		return nil, nil, fmt.Errorf("lda: loading %s: %w", path, err)
	}
	return m, mf.Close, nil
}
