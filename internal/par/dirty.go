package par

import "repro/internal/codec"

// Paged is implemented by app programs that expose their checkpoint state as
// fixed-size pages for dirty-region tracking. The page size is the
// granularity at which the incremental schemes diff successive snapshots —
// the simulated analogue of an mprotect-based dirty-page tracker. Programs
// that don't implement it fall back to DefaultStatePageSize.
type Paged interface {
	StatePageSize() int
}

// DefaultStatePageSize is the dirty-tracking granularity for programs that
// don't implement Paged: the classic 4 KiB hardware page.
const DefaultStatePageSize = 4096

// StatePageSizeOf resolves a snapshotter's dirty-tracking page size.
func StatePageSizeOf(s Snapshotter) int {
	if p, ok := s.(Paged); ok {
		if ps := p.StatePageSize(); ps > 0 {
			return ps
		}
	}
	return DefaultStatePageSize
}

// DirtyTracker is the dirty-region scan as the benchmark's codec probe
// measures it, and has no other caller: the checkpointers compare pages in
// their image holder (package ckpt). It records which pages of an image
// differ from the last retained one, holding that image itself — the slice it
// was handed, not a copy, which its lender must never write again.
type DirtyTracker struct {
	pageSize int
	prev     []byte
}

// NewDirtyTracker returns a tracker diffing at the given page size.
func NewDirtyTracker(pageSize int) *DirtyTracker {
	if pageSize <= 0 {
		pageSize = DefaultStatePageSize
	}
	return &DirtyTracker{pageSize: pageSize}
}

// Retain makes img the new diff baseline. It holds img, it does not copy it:
// the caller never writes img again.
func (t *DirtyTracker) Retain(img []byte) { t.prev = img }

// DirtyPages returns the indices of cur's pages that differ from the
// retained image (from zeros before the first Retain).
func (t *DirtyTracker) DirtyPages(cur []byte) []int {
	return codec.DirtyPages(t.prev, cur, t.pageSize)
}
