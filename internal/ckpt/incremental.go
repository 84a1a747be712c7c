package ckpt

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/par"
)

// BaseEvery is the incremental variants' chain length K: every K-th
// checkpoint of a node is a full base image, the K-1 between are page
// deltas. Recovery never assumes the cadence — it follows each file's Prev
// pointer — but the cadence bounds every chain to K files.
const BaseEvery = 4

// IncCapture is the per-node encoder state an incremental scheme carries: a
// dirty tracker retaining the last durable image and the chain bookkeeping
// that decides when the next checkpoint must be a base. Schemes call EncodeTo
// when capturing, then Commit only once the file is durable (for coordinated
// rounds: committed) — a skipped or aborted checkpoint leaves the capture
// untouched, so the next EncodeTo re-diffs against the last checkpoint that
// actually exists and Prev pointers always name durable checkpoints.
type IncCapture struct {
	tracker   *par.DirtyTracker
	prevIndex int
	sinceBase int

	// img is the padded image of the capture in flight, in a buffer reused
	// from capture to capture: the image is dead once Commit has retained
	// (copied) it or its attempt aborted, and no incremental scheme captures
	// again on a node before then. Everything past snapLen, up to the
	// buffer's capacity, is zero.
	img     []byte
	snapLen int
}

// NewIncCapture returns a capture diffing at the given page size (a node's
// par.StatePageSizeOf). The capture starts unprimed, so the first checkpoint
// of an incarnation — including the first after a recovery — is a base.
func NewIncCapture(pageSize int) *IncCapture {
	return &IncCapture{tracker: par.NewDirtyTracker(pageSize)}
}

// Image returns snap padded with pad zero bytes — the process image a
// checkpoint saves — valid until the next Image on this capture.
func (ic *IncCapture) Image(snap []byte, pad int) []byte {
	n := len(snap) + pad
	if cap(ic.img) < n {
		ic.img = make([]byte, n)
	} else if ic.img = ic.img[:n]; len(snap) < ic.snapLen {
		clear(ic.img[len(snap):ic.snapLen]) // a shorter snapshot: re-zero what the last one left in the tail
	}
	ic.snapLen = copy(ic.img, snap)
	return ic.img
}

// EncodeTo writes the payload for a checkpoint of img into w and returns it
// with its chain pointer: a zero-run-compressed base (prev 0) at the start of
// each chain, a page delta against the previous durable image otherwise. The
// schemes pass pooled scratch here: the payload only lives until it is
// embedded (copied) into the enclosing checkpoint file by encodeCkptFile, so
// the writer is freed right after the embed and steady-state incremental
// capture allocates no payload buffers. The returned bytes alias w's buffer.
func (ic *IncCapture) EncodeTo(w *codec.Writer, img []byte) (payload []byte, prev int) {
	if ic.tracker.Primed() && ic.sinceBase < BaseEvery-1 {
		return ic.tracker.DeltaTo(w, img), ic.prevIndex
	}
	return codec.EncodeBaseImageTo(w, img), 0
}

// Commit records that the checkpoint of img at index, encoded with chain
// pointer prev, became durable: img is the new diff baseline.
func (ic *IncCapture) Commit(index int, img []byte, prev int) {
	ic.tracker.Retain(img)
	if prev == 0 {
		ic.sinceBase = 0
	} else {
		ic.sinceBase++
	}
	ic.prevIndex = index
}

// Replayer reconstructs incremental checkpoints from their durable chains
// into buffers it owns: the image under replay, and one buffer per chain link
// for fetches that copy (the oracle's Peek). The image it returns is borrowed
// until its next reconstruction. Recovery, which reconstructs once per rank,
// uses a fresh zero value.
type Replayer struct {
	codec codec.Replayer
	links [BaseEvery][]byte
}

// ReconstructCkpt replays the base+delta chain ending at rank's checkpoint
// index as the variant laid it out on stable storage, following each file's
// Prev pointer — never assuming the cadence. fetch returns one durable file's
// bytes by path: a storage read's borrow, or a copy appended to buf[:0], which
// is then that link's buffer again at the next reconstruction. It returns the
// full image and the decoded head file, whose Lib a restore also needs.
// Errors name the chain link that failed to resolve — the delta round a
// broken chain points at.
func (rp *Replayer) ReconstructCkpt(v Variant, rank, index int, fetch func(path string, buf []byte) ([]byte, error)) ([]byte, CkptFile, error) {
	var head CkptFile
	chain := make([][]byte, 0, BaseEvery)
	for idx := index; ; {
		path := v.StatePath(rank, idx)
		data, err := fetch(path, rp.links[len(chain)])
		var f CkptFile
		if err == nil {
			rp.links[len(chain)] = data
			f, err = DecodeCkptFile(v, data)
		}
		if err == nil && f.Index != idx {
			err = fmt.Errorf("%s holds index %d, want %d", path, f.Index, idx)
		}
		if err != nil {
			return nil, head, fmt.Errorf("ckpt: delta chain for checkpoint %d broken at link %d: %w", index, idx, err)
		}
		if idx == index {
			head = f
		}
		chain = append(chain, f.State)
		if f.Prev == 0 {
			break
		}
		if f.Prev >= idx || len(chain) >= BaseEvery {
			return nil, head, fmt.Errorf("ckpt: delta chain for checkpoint %d malformed at link %d (prev %d, length %d)",
				index, idx, f.Prev, len(chain))
		}
		idx = f.Prev
	}
	slices.Reverse(chain)
	img, err := rp.codec.Replay(chain)
	if err != nil {
		return nil, head, fmt.Errorf("ckpt: replaying delta chain for checkpoint %d: %w", index, err)
	}
	return img, head, nil
}
