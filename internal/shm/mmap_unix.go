//go:build unix

package shm

import (
	"fmt"
	"os"
	"syscall"
)

// Supported reports whether this platform can map region files.
func Supported() bool { return true }

// mapRegion maps size bytes of fd read-write and shared.
func mapRegion(fd, size int) ([]byte, error) {
	return syscall.Mmap(fd, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

// CreateFile creates (truncating any stale file) and maps a region file:
// the serving side of a session. The file is created 0600 — the ring is a
// private channel between two cooperating processes.
func CreateFile(path string, l Layout) (*Region, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := f.Truncate(int64(l.FileSize())); err != nil {
		return nil, fmt.Errorf("shm: sizing %s: %w", path, err)
	}
	b, err := mapRegion(int(f.Fd()), l.FileSize())
	if err != nil {
		return nil, fmt.Errorf("shm: mapping %s: %w", path, err)
	}
	r, err := NewRegion(b, l, true)
	if err != nil {
		syscall.Munmap(b)
		return nil, err
	}
	r.unmap = func() error { return syscall.Munmap(b) }
	return r, nil
}

// OpenFile maps an existing region file created by the peer, validating
// its header before trusting the geometry.
func OpenFile(path string) (*Region, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, regionHdrSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("shm: reading %s header: %w", path, err)
	}
	l, err := ParseLayout(hdr)
	if err != nil {
		return nil, err
	}
	if st.Size() < int64(l.FileSize()) {
		return nil, errShortMapping
	}
	// Re-open writable: the opener produces into the submission ring.
	wf, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer wf.Close()
	b, err := mapRegion(int(wf.Fd()), l.FileSize())
	if err != nil {
		return nil, fmt.Errorf("shm: mapping %s: %w", path, err)
	}
	r, err := NewRegion(b, l, false)
	if err != nil {
		syscall.Munmap(b)
		return nil, err
	}
	r.unmap = func() error { return syscall.Munmap(b) }
	return r, nil
}
