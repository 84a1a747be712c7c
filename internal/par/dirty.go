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

// DirtyTracker records which pages of a node's checkpoint image changed
// since the last retained checkpoint, by holding the previous image and
// diffing at page granularity. An image is a snapshot followed by zero
// padding that is never materialised: the tracker holds the snapshot itself —
// the slice it was handed, not a copy, which its lender must never write again
// (par.Snapshotter's promise, for a snapshot) — and the padding's length.
type DirtyTracker struct {
	pageSize int
	prev     []byte // the baseline image's bytes, held until the next Retain
	prevPad  int    // zero bytes that follow prev in the baseline image
	primed   bool
}

// NewDirtyTracker returns a tracker diffing at the given page size.
func NewDirtyTracker(pageSize int) *DirtyTracker {
	if pageSize <= 0 {
		pageSize = DefaultStatePageSize
	}
	return &DirtyTracker{pageSize: pageSize}
}

// Primed reports whether a previous image is retained — i.e. whether a delta
// can be encoded. A fresh tracker is unprimed, which is what forces the first
// checkpoint after a start or a recovery to be a full base.
func (t *DirtyTracker) Primed() bool { return t.primed }

// Retain makes img the new diff baseline. It holds img, it does not copy it:
// the caller never writes img again. Schemes call it only once the checkpoint
// holding img is durable (committed, for coordinated rounds), so the chain's
// prev pointers always name durable checkpoints.
func (t *DirtyTracker) Retain(img []byte) { t.RetainPadded(img, 0) }

// RetainPadded is Retain of the image snap followed by pad zero bytes.
func (t *DirtyTracker) RetainPadded(snap []byte, pad int) {
	t.prev, t.prevPad, t.primed = snap, pad, true
}

// DirtyPages returns the indices of cur's pages that differ from the
// retained image (from zeros when unprimed).
func (t *DirtyTracker) DirtyPages(cur []byte) []int {
	return codec.DirtyPages(t.prev, cur, t.pageSize)
}

// DeltaTo encodes into w the pages of the image cur followed by pad zero bytes
// that differ from the retained image (the returned bytes alias w's buffer).
// The tracker must be primed.
func (t *DirtyTracker) DeltaTo(w *codec.Writer, cur []byte, pad int) []byte {
	if !t.primed {
		panic("par: Delta on an unprimed DirtyTracker")
	}
	return codec.EncodeDeltaTo(w, t.prev, t.prevPad, cur, pad, t.pageSize)
}
