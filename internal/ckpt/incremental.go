package ckpt

import (
	"fmt"
	"slices"

	"repro/internal/codec"
)

// BaseEvery is the incremental variants' chain length K: every K-th
// checkpoint of a node is a full base image, the K-1 between are page
// deltas. Recovery never assumes the cadence — it follows each file's Prev
// pointer — but the cadence bounds every chain to K files.
const BaseEvery = 4

// Replayer is the one reader of durable checkpoints: it reads rank's
// checkpoint back from stable storage whatever the variant laid out there,
// into buffers it owns — the image under replay, and one buffer per chain
// link for fetches that copy (the oracle's Peek). What it returns is
// borrowed until its next read. Recovery, which reads once per rank, uses a
// fresh zero value.
type Replayer struct {
	codec codec.Replayer
	links [BaseEvery][]byte
}

// ReadHead reads only the head file of rank's checkpoint index — the file its
// commit wrote — without following a chain or holding the file to index, so
// that an audit can compare each field, the index the file names included,
// with its record. An error means the file could not be fetched or decoded.
// fetch is as for ReconstructCkpt.
func (rp *Replayer) ReadHead(v Variant, rank, index int, fetch func(path string, buf []byte) ([]byte, error)) (CkptFile, error) {
	return rp.readLink(v, rank, index, 0, fetch)
}

// readLink fetches and decodes the file of rank's checkpoint idx into link
// buffer i.
func (rp *Replayer) readLink(v Variant, rank, idx, i int, fetch func(path string, buf []byte) ([]byte, error)) (CkptFile, error) {
	path := v.StatePath(rank, idx)
	data, err := fetch(path, rp.links[i])
	if err != nil {
		return CkptFile{}, err
	}
	rp.links[i] = data
	f, err := decodeCkptFile(v, data)
	if err != nil {
		return CkptFile{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// ReconstructCkpt reads rank's checkpoint index as the variant laid it out on
// stable storage and returns the image a restore hands the program. Every
// file is a record whose Index must be the one asked for, in one of two
// layouts:
//
//   - under full capture the checkpoint is one record, whose state section is
//     the image;
//   - under incremental capture it heads a base+delta chain, replayed by
//     following each file's Prev pointer — never assuming the cadence — with
//     every link's Index verified.
//
// fetch returns one durable file's bytes by path: a storage read's borrow, or
// a copy appended to buf[:0], which is then that link's buffer again at the
// next read. Errors name the link that failed to resolve — the delta round a
// broken chain points at.
func (rp *Replayer) ReconstructCkpt(v Variant, rank, index int, fetch func(path string, buf []byte) ([]byte, error)) ([]byte, error) {
	chain := make([][]byte, 0, BaseEvery)
	for idx := index; ; {
		f, err := rp.readLink(v, rank, idx, len(chain), fetch)
		if err == nil && f.Index != idx {
			err = fmt.Errorf("%s holds index %d, want %d", v.StatePath(rank, idx), f.Index, idx)
		}
		if err != nil {
			return nil, fmt.Errorf("ckpt: rank %d checkpoint %d broken at link %d: %w", rank, index, idx, err)
		}
		if !v.Incremental() {
			return f.State, nil
		}
		chain = append(chain, f.State)
		if f.Prev == 0 {
			break
		}
		if f.Prev >= idx || len(chain) >= BaseEvery {
			return nil, fmt.Errorf("ckpt: rank %d checkpoint %d: delta chain malformed at link %d (prev %d, length %d)",
				rank, index, idx, f.Prev, len(chain))
		}
		idx = f.Prev
	}
	slices.Reverse(chain)
	img, err := rp.codec.Replay(chain)
	if err != nil {
		return nil, fmt.Errorf("ckpt: rank %d checkpoint %d: replaying delta chain: %w", rank, index, err)
	}
	return img, nil
}
