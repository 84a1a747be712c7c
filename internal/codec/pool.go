package codec

import "sync"

// Writer free list.
//
// Encoded streams in this system fall into ownership classes. Blobs handed
// to the fabric or to stable storage (checkpoint files, message bodies) must
// be freshly owned and are never written again: an envelope keeps its payload
// alive while in flight, the storage server keeps the very slices it is
// handed as the file's extents (and a timed-out storage call can leave an
// abandoned request it serves later), and sender-based logging retains
// message bodies for replay — none of these have a trackable death point, so
// their writers are plain NewWriter allocations (NewWriterSize for the two
// ends of a checkpoint record, whose size is known). An application's
// Snapshot is in this class by contract (par.Snapshotter), which is what lets
// a full-image checkpoint file lend it to storage instead of copying it — or
// borrow its unchanged pages from earlier snapshots and earlier copies of
// changed pages, all never written again — and what lets a node's image holder
// (package ckpt) keep it, under either capture family, as the image the next
// capture is compared with. But
// *scratch* streams — an incremental payload that is embedded (copied) into
// an enclosing checkpoint file and then dead, a vector encoded only to be
// compared — die at a specific statement, and those call sites bracket the
// encode with GetWriter/Free so steady-state encoding allocates nothing. A
// third class needs no list at all: a buffer with one owner that outlives its
// uses — a Replayer's image and page, the scratch handed to storage's Peek —
// is simply reused by its owner, and what it lends out is valid until the
// owner's next use. The fourth is shared
// and immutable: ckpt's zero page, the padding of every process image, which
// any number of files, requests and stored extents borrow at once because
// nobody, ever, writes it.
//
// The list is process-global and mutex-guarded because benchmark cells
// encode concurrently; it is deliberately not a sync.Pool, whose GC-driven
// emptying would make the allocation-regression tests (testing.AllocsPerRun
// pins of zero) flaky. Bounded length and per-buffer capacity keep a burst
// of large checkpoints from pinning memory for the life of the process.

const (
	// maxPooledWriters bounds the free list's length.
	maxPooledWriters = 64
	// maxPooledCap is the largest buffer capacity worth retaining; bigger
	// one-off streams are dropped for the GC rather than held forever.
	maxPooledCap = 1 << 20
)

var writerFree struct {
	mu sync.Mutex
	ws []*Writer
}

// GetWriter returns an empty writer from the free list, allocating only when
// the list is dry. Pair it with Free once the encoded bytes have been copied
// out or are otherwise dead; a writer whose Bytes escape to the fabric or to
// storage must use NewWriter instead.
func GetWriter() *Writer {
	writerFree.mu.Lock()
	n := len(writerFree.ws)
	if n == 0 {
		writerFree.mu.Unlock()
		return NewWriter()
	}
	w := writerFree.ws[n-1]
	writerFree.ws[n-1] = nil
	writerFree.ws = writerFree.ws[:n-1]
	writerFree.mu.Unlock()
	return w
}

// Free resets the writer and returns it to the free list. The caller must be
// finished with every slice obtained from Bytes: the buffer is reused by a
// future GetWriter. Oversized buffers and overflow beyond the list bound are
// released to the garbage collector instead of retained.
func (w *Writer) Free() {
	if w == nil || cap(w.buf) > maxPooledCap {
		return
	}
	w.Reset()
	writerFree.mu.Lock()
	if len(writerFree.ws) < maxPooledWriters {
		writerFree.ws = append(writerFree.ws, w)
	}
	writerFree.mu.Unlock()
}
