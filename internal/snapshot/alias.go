package snapshot

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether this machine stores integers
// little-endian — the precondition for reinterpreting v2 blob bytes in
// place instead of decoding them.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// The alias helpers reinterpret a section's bytes as a typed slice without
// copying. Callers guarantee len(b) covers n elements and the host is
// little-endian; alignment is rechecked at runtime (mmap bases are
// page-aligned and v2 offsets are 8-aligned, but a heap buffer handed to
// OpenV2 could in principle start anywhere) and falls back to a copy.

func aliasFloat64(b []byte, n int) []float64 {
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%8 != 0 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return out
	}
	return unsafe.Slice((*float64)(p), n)
}

func aliasInt64(b []byte, n int) []int64 {
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%8 != 0 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return out
	}
	return unsafe.Slice((*int64)(p), n)
}
