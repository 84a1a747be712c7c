package ckpt

import (
	"fmt"

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
}

// NewIncCapture returns a capture diffing at the given page size (a node's
// par.StatePageSizeOf). The capture starts unprimed, so the first checkpoint
// of an incarnation — including the first after a recovery — is a base.
func NewIncCapture(pageSize int) *IncCapture {
	return &IncCapture{tracker: par.NewDirtyTracker(pageSize)}
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

// ReconstructState replays the base+delta chain ending at index: read
// resolves an index to its durable payload and chain pointer (decoding the
// file's envelope), and the returned image is the full checkpoint state.
// Errors name the chain link that failed to resolve — the delta round a
// broken chain points at.
func ReconstructState(read func(index int) (payload []byte, prev int, err error), index int) ([]byte, error) {
	var chain [][]byte
	for idx := index; ; {
		payload, prev, err := read(idx)
		if err != nil {
			return nil, fmt.Errorf("ckpt: delta chain for checkpoint %d broken at link %d: %w", index, idx, err)
		}
		chain = append(chain, payload)
		if prev == 0 {
			break
		}
		if prev >= idx || len(chain) >= BaseEvery {
			return nil, fmt.Errorf("ckpt: delta chain for checkpoint %d malformed at link %d (prev %d, length %d)",
				index, idx, prev, len(chain))
		}
		idx = prev
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	img, err := codec.ReconstructImage(chain)
	if err != nil {
		return nil, fmt.Errorf("ckpt: replaying delta chain for checkpoint %d: %w", index, err)
	}
	return img, nil
}

// ReconstructCkpt replays the chain ending at rank's checkpoint index as the
// variant laid it out on stable storage: fetch returns one durable file's
// bytes by path (a storage read, or the oracle's Peek). It returns the full
// image and the decoded head file, whose Lib a restore also needs.
func ReconstructCkpt(v Variant, rank, index int, fetch func(path string) ([]byte, error)) ([]byte, CkptFile, error) {
	var head CkptFile
	img, err := ReconstructState(func(idx int) ([]byte, int, error) {
		path := v.StatePath(rank, idx)
		data, err := fetch(path)
		if err != nil {
			return nil, 0, err
		}
		f, err := DecodeCkptFile(v, data)
		if err != nil {
			return nil, 0, err
		}
		if f.Index != idx {
			return nil, 0, fmt.Errorf("%s holds index %d, want %d", path, f.Index, idx)
		}
		if idx == index {
			head = f
		}
		return f.State, f.Prev, nil
	}, index)
	return img, head, err
}
