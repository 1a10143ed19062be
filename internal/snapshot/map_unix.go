//go:build unix

package snapshot

import (
	"fmt"
	"os"
	"syscall"
)

// Map opens the v2 container at path through mmap: the section table is
// parsed and checksummed, but payload bytes stay on disk until first touch
// (and off the Go heap always), so opening is O(sections) regardless of
// model size. If the filesystem refuses mmap, Map falls back to reading the
// file into memory — same API, heap-resident bytes, Mapped() == false.
func Map(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size <= 0 || size != int64(int(size)) {
		return nil, corrupt(fmt.Errorf("%s: %w: %d-byte file cannot be a v2 container", path, ErrTruncated, size))
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return mapReadFallback(path)
	}
	mf, perr := parseV2(data)
	if perr != nil {
		syscall.Munmap(data)
		return nil, corrupt(fmt.Errorf("%s: %w", path, perr))
	}
	mf.mapped = true
	mf.closeFn = func() error { return syscall.Munmap(data) }
	mmapLoads.Inc()
	readsTotal.Inc()
	return mf, nil
}
