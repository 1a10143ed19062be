// IBSNAP format version 2: a flat, seekable binary container designed for
// mmap zero-copy loading of large models. Where a v1 container is one opaque
// checksummed payload (typically a gob stream, so loading is O(bytes) decode
// plus a heap-doubling copy), a v2 container is a section table over raw,
// 8-byte-aligned blobs: a loader parses the table — O(sections) — and points
// matrix rows directly at the mapped file, so a multi-GB model costs neither
// decode time nor Go heap.
//
// Layout (integers big-endian in the header/table, matching v1; blob
// payloads little-endian for zero-copy aliasing on little-endian hosts):
//
//	offset  size  field
//	0       6     magic "IBSNAP"
//	6       2     format version (2)
//	8       2     kind length n
//	10      n     kind (e.g. "lda-model")
//	10+n    4     section count S
//	...           S section entries:
//	                2  name length L
//	                L  name
//	                8  section offset (from file start)
//	                8  section length in bytes
//	                4  CRC-32C of the section bytes
//	...     4     CRC-32C of every byte above (the header checksum)
//	...           zero padding to the first 8-byte boundary
//	...           section payloads, each starting 8-byte aligned,
//	              zero padding between and after them
//
// Integrity policy: the header checksum is always verified on open, so a
// torn or bit-flipped table can never mis-direct a read. Each section's CRC
// is verified by Section, Float64Section or Int64Section on that section's
// first access.
//
// Alignment: every section offset is a multiple of 8, and mmap returns
// page-aligned base addresses, so a float64 blob can be reinterpreted
// in place. Writers producing unaligned tables are rejected by the reader.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/obs"
)

// Version2 is the flat-container format version.
const Version2 = 2

// maxSections bounds the section count so a corrupt table cannot drive a
// huge allocation before the header checksum is verified.
const maxSections = 4096

var (
	mmapLoads = obs.Default().Counter("snapshot_mmap_loads_total",
		"v2 containers opened through the zero-copy mmap path")
	fallbackLoads = obs.Default().Counter("snapshot_map_fallback_loads_total",
		"v2 containers opened through the read-at fallback (no mmap available)")
	sectionVerifies = obs.Default().Counter("snapshot_section_verifies_total",
		"v2 sections whose CRC-32C was verified")
)

// Builder assembles a v2 container in memory. Sections keep insertion
// order; names must be unique and non-empty.
type Builder struct {
	kind     string
	names    map[string]bool
	sections []builderSection
}

type builderSection struct {
	name string
	data []byte
}

// NewBuilder starts a v2 container of the given kind (the same kind strings
// the v1 container uses, e.g. lda.KindModel).
func NewBuilder(kind string) *Builder {
	return &Builder{kind: kind, names: map[string]bool{}}
}

// AddSection appends a raw byte section. The builder aliases data; do not
// mutate it before Write.
func (b *Builder) AddSection(name string, data []byte) error {
	if name == "" || len(name) > maxKindLen {
		return fmt.Errorf("snapshot: invalid section name %q", name)
	}
	if b.names[name] {
		return fmt.Errorf("snapshot: duplicate section %q", name)
	}
	if len(b.sections) >= maxSections {
		return fmt.Errorf("snapshot: too many sections (max %d)", maxSections)
	}
	b.names[name] = true
	b.sections = append(b.sections, builderSection{name: name, data: data})
	return nil
}

// AddFloat64 appends vals as a little-endian float64 blob.
func (b *Builder) AddFloat64(name string, vals []float64) error {
	data := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
	}
	return b.AddSection(name, data)
}

// AddInt64 appends vals as a little-endian int64 blob.
func (b *Builder) AddInt64(name string, vals []int64) error {
	data := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(data[8*i:], uint64(v))
	}
	return b.AddSection(name, data)
}

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// Write emits the complete container. w must be positioned at what will be
// file offset 0 (section offsets are absolute).
func (b *Builder) Write(w io.Writer) error {
	if b.kind == "" || len(b.kind) > maxKindLen {
		return fmt.Errorf("snapshot: invalid kind %q", b.kind)
	}
	// Header + table first, so section offsets are known.
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], Version2)
	hdr.Write(u16[:])
	binary.BigEndian.PutUint16(u16[:], uint16(len(b.kind)))
	hdr.Write(u16[:])
	hdr.WriteString(b.kind)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(b.sections)))
	hdr.Write(u32[:])

	// Table size is data-independent, so offsets can be computed up front.
	tableLen := 0
	for _, s := range b.sections {
		tableLen += 2 + len(s.name) + 8 + 8 + 4
	}
	// Sections start after header + table + header CRC, 8-byte aligned.
	off := align8(uint64(hdr.Len()+tableLen) + 4)
	offsets := make([]uint64, len(b.sections))
	for i, s := range b.sections {
		offsets[i] = off
		off = align8(off + uint64(len(s.data)))
	}
	for i, s := range b.sections {
		binary.BigEndian.PutUint16(u16[:], uint16(len(s.name)))
		hdr.Write(u16[:])
		hdr.WriteString(s.name)
		var u64 [8]byte
		binary.BigEndian.PutUint64(u64[:], offsets[i])
		hdr.Write(u64[:])
		binary.BigEndian.PutUint64(u64[:], uint64(len(s.data)))
		hdr.Write(u64[:])
		binary.BigEndian.PutUint32(u32[:], crc32.Checksum(s.data, crcTable))
		hdr.Write(u32[:])
	}
	binary.BigEndian.PutUint32(u32[:], crc32.Checksum(hdr.Bytes(), crcTable))
	hdr.Write(u32[:])

	if _, err := w.Write(hdr.Bytes()); err != nil {
		return fmt.Errorf("snapshot: writing v2 header: %w", err)
	}
	pos := uint64(hdr.Len())
	var pad [8]byte
	for i, s := range b.sections {
		if n := offsets[i] - pos; n > 0 {
			if _, err := w.Write(pad[:n]); err != nil {
				return fmt.Errorf("snapshot: writing v2 padding: %w", err)
			}
			pos += n
		}
		if _, err := w.Write(s.data); err != nil {
			return fmt.Errorf("snapshot: writing v2 section %s: %w", s.name, err)
		}
		pos += uint64(len(s.data))
	}
	writesTotal.Inc()
	return nil
}

// WriteFile writes the container to path with the package's crash-safe
// Atomic discipline (temp file, fsync, rename, directory fsync).
func (b *Builder) WriteFile(path string) error {
	return Atomic(path, b.Write)
}

// section is one entry of a parsed v2 section table.
type section struct {
	Name   string
	Offset uint64
	Len    uint64
	CRC    uint32
}

// File is an opened v2 container: the parsed section table over the raw file
// bytes, which may be an mmap (zero-copy) or a heap buffer (fallback).
// A File is safe for concurrent readers after Open/Map returns, except that
// the lazy per-section CRC bookkeeping makes first accesses of the same
// section race-benign but not atomic — serve-path callers verify up front.
type File struct {
	kind     string
	data     []byte
	sections []section
	byName   map[string]int
	verified []bool // per section; set once its CRC has been checked
	mapped   bool
	closeFn  func() error
}

// mapReadFallback reads the whole container into memory and parses it as
// v2 — the path for platforms without mmap, or filesystems that refuse it.
// Same API as a real mapping; Mapped() reports false.
func mapReadFallback(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	mf, perr := parseV2(data)
	if perr != nil {
		return nil, corrupt(fmt.Errorf("%s: %w", path, perr))
	}
	fallbackLoads.Inc()
	readsTotal.Inc()
	return mf, nil
}

// OpenV2 parses a v2 container from bytes already in memory. The returned
// File aliases data.
func OpenV2(data []byte) (*File, error) {
	f, err := parseV2(data)
	if err != nil {
		return nil, corrupt(err)
	}
	readsTotal.Inc()
	return f, nil
}

// parseV2 validates the header, table and bounds. It does not touch section
// payload bytes (that is the per-section CRC check, done lazily).
func parseV2(data []byte) (*File, error) {
	if len(data) < 14 {
		return nil, fmt.Errorf("%w: v2 header", ErrTruncated)
	}
	if !bytes.Equal(data[:6], magic[:]) {
		return nil, ErrNotSnapshot
	}
	if v := binary.BigEndian.Uint16(data[6:8]); v != Version2 {
		return nil, fmt.Errorf("snapshot: not a v2 container (version %d): %w", v, ErrNotSnapshot)
	}
	kindLen := int(binary.BigEndian.Uint16(data[8:10]))
	if kindLen == 0 || kindLen > maxKindLen {
		return nil, fmt.Errorf("snapshot: invalid kind length %d: %w", kindLen, ErrNotSnapshot)
	}
	pos := 10 + kindLen
	if len(data) < pos+4 {
		return nil, fmt.Errorf("%w: v2 header", ErrTruncated)
	}
	kind := string(data[10:pos])
	count := binary.BigEndian.Uint32(data[pos : pos+4])
	pos += 4
	if count > maxSections {
		return nil, fmt.Errorf("snapshot: section count %d exceeds the %d cap: %w", count, maxSections, ErrNotSnapshot)
	}
	f := &File{
		kind:     kind,
		data:     data,
		sections: make([]section, 0, count),
		byName:   make(map[string]int, count),
	}
	for i := uint32(0); i < count; i++ {
		if len(data) < pos+2 {
			return nil, fmt.Errorf("%w: v2 section table", ErrTruncated)
		}
		nameLen := int(binary.BigEndian.Uint16(data[pos : pos+2]))
		pos += 2
		if nameLen == 0 || nameLen > maxKindLen || len(data) < pos+nameLen+20 {
			return nil, fmt.Errorf("%w: v2 section table entry %d", ErrTruncated, i)
		}
		name := string(data[pos : pos+nameLen])
		pos += nameLen
		sec := section{
			Name:   name,
			Offset: binary.BigEndian.Uint64(data[pos : pos+8]),
			Len:    binary.BigEndian.Uint64(data[pos+8 : pos+16]),
			CRC:    binary.BigEndian.Uint32(data[pos+16 : pos+20]),
		}
		pos += 20
		if _, dup := f.byName[name]; dup {
			return nil, fmt.Errorf("snapshot: duplicate v2 section %q", name)
		}
		f.byName[name] = len(f.sections)
		f.sections = append(f.sections, sec)
	}
	if len(data) < pos+4 {
		return nil, fmt.Errorf("%w: v2 header checksum", ErrTruncated)
	}
	want := binary.BigEndian.Uint32(data[pos : pos+4])
	if crc32.Checksum(data[:pos], crcTable) != want {
		return nil, fmt.Errorf("snapshot: v2 header checksum mismatch: %w", ErrChecksum)
	}
	// Bounds and alignment of every section, before any payload access.
	for _, sec := range f.sections {
		if sec.Offset%8 != 0 {
			return nil, fmt.Errorf("snapshot: v2 section %q offset %d is not 8-byte aligned", sec.Name, sec.Offset)
		}
		end := sec.Offset + sec.Len
		if end < sec.Offset || end > uint64(len(data)) {
			return nil, fmt.Errorf("%w: v2 section %q [%d,%d) outside the %d-byte file",
				ErrTruncated, sec.Name, sec.Offset, end, len(data))
		}
	}
	f.verified = make([]bool, len(f.sections))
	return f, nil
}

// Kind returns the container's kind string.
func (f *File) Kind() string { return f.kind }

// Mapped reports whether the file bytes are an mmap (true) or a heap copy.
func (f *File) Mapped() bool { return f.mapped }

// Close releases the mapping (or heap buffer). Any []byte or []float64
// obtained from a mapped File is invalid after Close — serving code must
// hold the File for as long as aliased matrices are reachable.
func (f *File) Close() error {
	if f.closeFn != nil {
		fn := f.closeFn
		f.closeFn = nil
		return fn()
	}
	return nil
}

// Section returns the raw bytes of the named section, verifying its CRC on
// first access. The bytes alias the mapping — do not mutate, and do not use
// after Close.
func (f *File) Section(name string) ([]byte, error) {
	i, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("snapshot: no section %q in %s container", name, f.kind)
	}
	sec := f.sections[i]
	b := f.data[sec.Offset : sec.Offset+sec.Len]
	if !f.verified[i] {
		if crc32.Checksum(b, crcTable) != sec.CRC {
			return nil, corrupt(fmt.Errorf("snapshot: section %q: %w", name, ErrChecksum))
		}
		sectionVerifies.Inc()
		f.verified[i] = true
	}
	return b, nil
}

// Float64Section returns the named section as []float64. On a little-endian
// host with a mapped or heap-resident file this is a zero-copy reinterpret
// of the section bytes (the blob encoding is little-endian); on a big-endian
// host it decodes into a fresh slice. The section length must be a multiple
// of 8.
func (f *File) Float64Section(name string) ([]float64, error) {
	b, err := f.Section(name)
	if err != nil {
		return nil, err
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("snapshot: section %q length %d is not a whole float64 count", name, len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian {
		return aliasFloat64(b, n), nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// Int64Section returns the named section decoded as []int64 (aliased on
// little-endian hosts).
func (f *File) Int64Section(name string) ([]int64, error) {
	b, err := f.Section(name)
	if err != nil {
		return nil, err
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("snapshot: section %q length %d is not a whole int64 count", name, len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian {
		return aliasInt64(b, n), nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// FileVersion reads the container format version at path (1 or 2) without
// reading any payload, for dispatching a file of unknown vintage.
func FileVersion(path string) (uint16, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, corrupt(fmt.Errorf("%w: header: %v", ErrTruncated, err))
	}
	if !bytes.Equal(hdr[:6], magic[:]) {
		return 0, corrupt(ErrNotSnapshot)
	}
	return binary.BigEndian.Uint16(hdr[6:8]), nil
}

// SniffVersion inspects an in-memory container's format version.
func SniffVersion(data []byte) (uint16, error) {
	if len(data) < 8 {
		return 0, ErrTruncated
	}
	if !bytes.Equal(data[:6], magic[:]) {
		return 0, ErrNotSnapshot
	}
	return binary.BigEndian.Uint16(data[6:8]), nil
}
