//go:build !unix

package snapshot

// Map opens the v2 container at path. This platform has no mmap support, so
// the file is read into memory; the File API is identical but Mapped()
// reports false and memory cost is O(bytes).
func Map(path string) (*File, error) {
	return mapReadFallback(path)
}
