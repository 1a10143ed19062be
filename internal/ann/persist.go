// ANN index persistence: an IBSNAP v2 flat container so ibserve opens the
// routing index via mmap at boot and reload instead of re-clustering.
//
// Layout (kind "ann-index"):
//
//	meta          fixed 64-byte little-endian block (see metaLen)
//	centroids     float64 blob, Cells*Dim, row-major
//	cell_offsets  int64 CSR offsets, Cells+1
//	cell_ids      int64 postings, N company ids grouped by cell
//
// The meta section carries a CRC-32C fingerprint of the representation
// matrix the index was clustered from; LoadFile callers compare it against
// Fingerprint of the representations they are about to route for, so a
// stale index (model retrained, corpus changed) is rebuilt instead of
// silently mis-routing.
package ann

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/snapshot"
)

// Kind is the IBSNAP container kind of a persisted ANN index.
const Kind = "ann-index"

// v2 section names and the fixed meta layout (little-endian): Cells int64,
// Dim int64, N int64, Metric int64, Seed int64, RepsCRC uint64,
// Inertia float64, Iters int64. Metric is always core.Cosine (0); a file
// naming another is corrupt.
const (
	sectionMeta      = "meta"
	sectionCentroids = "centroids"
	sectionOffsets   = "cell_offsets"
	sectionIDs       = "cell_ids"
	metaLen          = 64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint returns a CRC-32C over the representation matrix's shape and
// row-major payload (little-endian), the value persisted in an index's meta
// section and compared on load. The polynomial matches the IBSNAP container
// checksums.
func Fingerprint(reps *mat.Matrix) uint32 {
	h := crc32.New(crcTable)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(int64(reps.Rows)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(reps.Cols)))
	h.Write(hdr[:])
	buf := make([]byte, 0, 8192)
	for _, v := range reps.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return h.Sum32()
}

// Save serializes the index as an IBSNAP v2 flat container of kind Kind.
func (ix *Index) Save(w io.Writer) error {
	b, err := ix.builder()
	if err != nil {
		return err
	}
	return b.Write(w)
}

// SaveFile atomically writes the index container to path.
func (ix *Index) SaveFile(path string) error {
	b, err := ix.builder()
	if err != nil {
		return err
	}
	return b.WriteFile(path)
}

func (ix *Index) builder() (*snapshot.Builder, error) {
	b := snapshot.NewBuilder(Kind)
	meta := make([]byte, metaLen)
	binary.LittleEndian.PutUint64(meta[0:], uint64(int64(ix.Cells())))
	binary.LittleEndian.PutUint64(meta[8:], uint64(int64(ix.Dim())))
	binary.LittleEndian.PutUint64(meta[16:], uint64(int64(ix.N)))
	binary.LittleEndian.PutUint64(meta[24:], uint64(int64(core.Cosine)))
	binary.LittleEndian.PutUint64(meta[32:], uint64(ix.Seed))
	binary.LittleEndian.PutUint64(meta[40:], uint64(ix.RepsCRC))
	binary.LittleEndian.PutUint64(meta[48:], math.Float64bits(ix.Inertia))
	binary.LittleEndian.PutUint64(meta[56:], uint64(int64(ix.Iters)))
	if err := b.AddSection(sectionMeta, meta); err != nil {
		return nil, err
	}
	if err := b.AddFloat64(sectionCentroids, ix.Centroids.Data); err != nil {
		return nil, err
	}
	if err := b.AddInt64(sectionOffsets, ix.Offsets); err != nil {
		return nil, err
	}
	if err := b.AddInt64(sectionIDs, ix.IDs); err != nil {
		return nil, err
	}
	return b, nil
}

// indexFromV2 decodes a parsed container, validating the CSR structure so a
// corrupt or hand-edited file cannot drive out-of-range candidate ids into
// the scans. The centroid matrix is frozen when the sections alias an mmap.
func indexFromV2(f *snapshot.File, frozen bool) (*Index, error) {
	if f.Kind() != Kind {
		return nil, &snapshot.KindError{Want: Kind, Got: f.Kind()}
	}
	meta, err := f.Section(sectionMeta)
	if err != nil {
		return nil, fmt.Errorf("ann: loading index: %w", err)
	}
	if len(meta) != metaLen {
		return nil, fmt.Errorf("ann: corrupt index meta section (%d bytes, want %d)", len(meta), metaLen)
	}
	cells := int64(binary.LittleEndian.Uint64(meta[0:]))
	dim := int64(binary.LittleEndian.Uint64(meta[8:]))
	n := int64(binary.LittleEndian.Uint64(meta[16:]))
	metric := int64(binary.LittleEndian.Uint64(meta[24:]))
	seed := int64(binary.LittleEndian.Uint64(meta[32:]))
	repsCRC := binary.LittleEndian.Uint64(meta[40:])
	inertia := math.Float64frombits(binary.LittleEndian.Uint64(meta[48:]))
	iters := int64(binary.LittleEndian.Uint64(meta[56:]))
	if cells < 1 || dim < 1 || n < cells || cells*dim > int64(math.MaxInt) ||
		repsCRC > math.MaxUint32 || iters < 0 || metric != int64(core.Cosine) {
		return nil, fmt.Errorf("ann: corrupt index meta (cells=%d dim=%d n=%d metric=%d)", cells, dim, n, metric)
	}
	cents, err := f.Float64Section(sectionCentroids)
	if err != nil {
		return nil, fmt.Errorf("ann: loading index: %w", err)
	}
	if int64(len(cents)) != cells*dim {
		return nil, fmt.Errorf("ann: corrupt centroids (%d values for %dx%d)", len(cents), cells, dim)
	}
	offsets, err := f.Int64Section(sectionOffsets)
	if err != nil {
		return nil, fmt.Errorf("ann: loading index: %w", err)
	}
	ids, err := f.Int64Section(sectionIDs)
	if err != nil {
		return nil, fmt.Errorf("ann: loading index: %w", err)
	}
	if int64(len(offsets)) != cells+1 || offsets[0] != 0 || offsets[cells] != n || int64(len(ids)) != n {
		return nil, fmt.Errorf("ann: corrupt postings shape (%d offsets, %d ids for %d cells over %d companies)",
			len(offsets), len(ids), cells, n)
	}
	for c := int64(0); c < cells; c++ {
		lo, hi := offsets[c], offsets[c+1]
		if lo > hi {
			return nil, fmt.Errorf("ann: corrupt postings (cell %d offsets %d > %d)", c, lo, hi)
		}
		for j := lo; j < hi; j++ {
			if ids[j] < 0 || ids[j] >= n || (j > lo && ids[j] <= ids[j-1]) {
				return nil, fmt.Errorf("ann: corrupt postings (cell %d id %d at %d)", c, ids[j], j)
			}
		}
	}
	var cm *mat.Matrix
	if frozen {
		cm = mat.FrozenFromSlice(int(cells), int(dim), cents)
	} else {
		cm = mat.FromSlice(int(cells), int(dim), cents)
	}
	return &Index{
		Seed:    seed,
		RepsCRC: uint32(repsCRC),
		N:       int(n),
		Inertia: inertia,
		Iters:   int(iters),

		Centroids: cm,
		Offsets:   offsets,
		IDs:       ids,
		mapped:    frozen,
	}, nil
}

// LoadFile mmaps the index container at path: centroids and postings alias
// the mapping (zero copy, O(sections) open) and the returned close function
// releases it. Close must not run before the index leaves the serving path —
// in ibserve that is when the owning generation's last in-flight request
// finishes. Callers routing for a representation matrix should reject an
// index whose RepsCRC differs from Fingerprint of that matrix.
func LoadFile(path string) (*Index, func() error, error) {
	mf, err := snapshot.Map(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ann: mapping %s: %w", path, err)
	}
	ix, err := indexFromV2(mf, true)
	if err != nil {
		mf.Close()
		return nil, nil, fmt.Errorf("ann: loading %s: %w", path, err)
	}
	mapOpensTotal.Inc()
	return ix, mf.Close, nil
}
