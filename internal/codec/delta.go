package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Delta codec: page-indexed incremental checkpoint images.
//
// An incremental checkpoint chain is a full "base" image followed by up to
// K-1 "delta" images, each recording only the pages that differ from the
// previous image in the chain. Both payload kinds compress zero bytes with a
// deterministic zero-run RLE — the simulated stand-in for the compression
// step of real incremental checkpointers — so the all-zero padding that
// models the fixed checkpoint image size (par.Config.CkptImageBytes)
// collapses to a few bytes and incremental checkpoints are strictly smaller
// than their full-image counterparts.
//
// Decoding is hardened for fuzzing: corrupt or truncated payloads return an
// error, never panic, and decoded sizes are capped so hostile length fields
// cannot force huge allocations.

const (
	baseMagic  uint64 = 0xc4b0_79a1_0b5e_0001 // full base image payload
	deltaMagic uint64 = 0xc4b0_79a1_0de1_0002 // page-delta payload
)

// minZeroRun is the shortest run of zero bytes the RLE encodes as a hole.
// Each RLE record costs 16 bytes of framing, so breaking a literal for a
// shorter run would grow the stream; with this floor every non-final record
// shrinks it.
const minZeroRun = 32

// maxImageBytes bounds the decoded size of any image or page, so corrupt
// length fields fail fast instead of allocating gigabytes.
const maxImageBytes = 1 << 28

// EncodeBaseImage encodes a full image as a zero-run-compressed base payload.
func EncodeBaseImage(cur []byte) []byte {
	return EncodeBaseImageTo(NewWriter(), cur, 0)
}

// EncodeBaseImageTo encodes the image cur followed by pad zero bytes — a
// snapshot padded to the process image, the padding never materialised —
// writing into a caller-supplied writer (typically pooled scratch: the payload
// is embedded into an enclosing checkpoint file and the writer freed). The
// returned bytes alias w's buffer.
func EncodeBaseImageTo(w *Writer, cur []byte, pad int) []byte {
	w.U64(baseMagic)
	writeZeroRLE(w, cur, pad)
	return w.Bytes()
}

// DecodeBaseImage decodes a payload produced by EncodeBaseImage.
func DecodeBaseImage(payload []byte) ([]byte, error) { return decodeBaseImage(nil, payload) }

// decodeBaseImage decodes a base payload into buf's storage (see readZeroRLE).
func decodeBaseImage(buf, payload []byte) ([]byte, error) {
	r := NewReader(payload)
	if m := r.U64(); r.err == nil && m != baseMagic {
		return nil, fmt.Errorf("codec: not a base image (magic %#x)", m)
	}
	img := readZeroRLE(r, buf)
	if r.err != nil {
		return nil, r.err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after base image", r.Remaining())
	}
	return img, nil
}

// DirtyPages returns the indices of the fixed-size pages of cur that differ
// from prev, treating prev as zero-extended (or truncated) to len(cur) — the
// page set a dirty-region tracker would have recorded between the two
// snapshots.
func DirtyPages(prev, cur []byte, pageSize int) []int {
	if pageSize <= 0 {
		panic("codec: page size must be positive")
	}
	var dirty []int
	for off, idx := 0, 0; off < len(cur); off, idx = off+pageSize, idx+1 {
		if pageDiffers(prev, cur, off, min(off+pageSize, len(cur))) {
			dirty = append(dirty, idx)
		}
	}
	return dirty
}

// pageDiffers reports whether bytes [off, end) of a and b differ, each read
// as zero past its end.
func pageDiffers(a, b []byte, off, end int) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	both := min(max(off, len(a)), end) // [off, both) is in a and b, [both, end) only in b, if anywhere
	if off < both && !bytes.Equal(a[off:both], b[off:both]) {
		return true
	}
	return both < min(end, len(b)) && !allZero(b[both:min(end, len(b))])
}

// allZero reports whether b holds only zero bytes, a word at a time.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// EncodeDelta encodes the pages of cur that differ from prev. prev is the
// previous image in the chain (zero-extended or truncated if the state
// changed size); pageSize is the app's StatePageSize. The payload replays
// against exactly len(prev) bytes — ApplyDelta enforces the match, which is
// what makes a broken chain detectable.
func EncodeDelta(prev, cur []byte, pageSize int) []byte {
	return EncodeDeltaTo(NewWriter(), prev, 0, cur, 0, pageSize)
}

// EncodeDeltaTo is EncodeDelta of the image cur followed by pad zero bytes
// against the image prev followed by prevPad zero bytes, writing into a
// caller-supplied writer (typically pooled scratch; see EncodeBaseImageTo).
// Neither padding is materialised or read: past both snapshots every page is
// zero in both images, so only the pages that hold snapshot bytes are
// compared. The returned bytes alias w's buffer.
func EncodeDeltaTo(w *Writer, prev []byte, prevPad int, cur []byte, pad int, pageSize int) []byte {
	if pageSize <= 0 {
		panic("codec: page size must be positive")
	}
	total := len(cur) + pad
	w.U64(deltaMagic)
	w.Int(total)
	w.Int(len(prev) + prevPad)
	w.Int(pageSize)
	count := w.Len()
	w.Int(0) // the dirty-page count, known once the pages are written
	dirty := 0
	for off, idx := 0, 0; off < min(total, max(len(prev), len(cur))); off, idx = off+pageSize, idx+1 {
		end := min(off+pageSize, total)
		if !pageDiffers(prev, cur, off, end) {
			continue
		}
		w.Int(idx)
		page := cur[min(off, len(cur)):min(end, len(cur))]
		writeZeroRLE(w, page, end-off-len(page))
		dirty++
	}
	binary.LittleEndian.PutUint64(w.buf[count:], uint64(dirty))
	return w.Bytes()
}

// Replayer replays checkpoint chains into buffers it owns and reuses, so a
// caller that replays chain after chain (the oracle's auditor) allocates only
// while they grow. An image it returns is borrowed: valid until the next
// Replay. The zero value is ready to use and allocates like the one-shot
// functions below, which are this code on a fresh value.
type Replayer struct {
	img  []byte // the image under reconstruction
	page []byte // one decoded delta page, between its decode and its checks
}

// Replay replays a full chain — a base payload followed by its deltas in
// commit order — and returns the final image.
func (rp *Replayer) Replay(chain [][]byte) ([]byte, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("codec: empty checkpoint chain")
	}
	img, err := decodeBaseImage(rp.img, chain[0])
	if err != nil {
		return nil, err
	}
	for i, d := range chain[1:] {
		img, err = rp.applyDelta(img, true, d)
		if err != nil {
			return nil, fmt.Errorf("codec: applying chain link %d: %w", i+1, err)
		}
	}
	rp.img = img
	return img, nil
}

// ReconstructImage replays a full chain into a fresh image.
func ReconstructImage(chain [][]byte) ([]byte, error) { return new(Replayer).Replay(chain) }

// ApplyDelta reconstructs the next image in a chain from the previous image
// and a delta payload. It errors (never panics) on corrupt payloads and on
// chain mismatches (the delta was not encoded against an image of len(prev)).
// prev is only read; the result is fresh.
func ApplyDelta(prev, payload []byte) ([]byte, error) {
	return new(Replayer).applyDelta(prev, false, payload)
}

// applyDelta is ApplyDelta; inPlace lets the result reuse prev's storage when
// its capacity holds the new image (a failed payload then leaves prev partly
// overwritten, which only a caller that discards it on error may allow).
func (rp *Replayer) applyDelta(prev []byte, inPlace bool, payload []byte) ([]byte, error) {
	r := NewReader(payload)
	if m := r.U64(); r.err == nil && m != deltaMagic {
		return nil, fmt.Errorf("codec: not a delta image (magic %#x)", m)
	}
	total := r.Int()
	prevLen := r.Int()
	pageSize := r.Int()
	npages := r.Int()
	if r.err != nil {
		return nil, r.err
	}
	if total < 0 || total > maxImageBytes {
		return nil, fmt.Errorf("codec: delta image size %d out of range", total)
	}
	if prevLen != len(prev) {
		return nil, fmt.Errorf("codec: delta chain mismatch: delta expects previous image of %d bytes, have %d", prevLen, len(prev))
	}
	if pageSize <= 0 || pageSize > maxImageBytes {
		return nil, fmt.Errorf("codec: delta page size %d out of range", pageSize)
	}
	maxPages := (total + pageSize - 1) / pageSize
	if npages < 0 || npages > maxPages {
		return nil, fmt.Errorf("codec: delta page count %d out of range (image holds %d pages)", npages, maxPages)
	}
	var out []byte
	if inPlace && cap(prev) >= total {
		out = prev[:total]
		if total > len(prev) {
			clear(out[len(prev):]) // zero-extension; the storage is dirty scratch
		}
	} else {
		out = make([]byte, total)
		copy(out, prev)
	}
	last := -1
	for i := 0; i < npages; i++ {
		idx := r.Int()
		page := readZeroRLE(r, rp.page)
		if r.err != nil {
			return nil, r.err
		}
		rp.page = page
		if idx <= last || idx >= maxPages {
			return nil, fmt.Errorf("codec: delta page index %d out of order or range", idx)
		}
		last = idx
		off := idx * pageSize
		want := pageSize
		if off+want > total {
			want = total - off
		}
		if len(page) != want {
			return nil, fmt.Errorf("codec: delta page %d holds %d bytes, want %d", idx, len(page), want)
		}
		copy(out[off:], page)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after delta image", r.Remaining())
	}
	return out, nil
}

// writeZeroRLE appends b followed by pad zero bytes as a zero-run-compressed
// stream: the decoded length, then (literal length, literal bytes, zero-run
// length) records until the length is covered. Only maximal runs of at least
// minZeroRun zeros become holes, so the stream never grows by more than one
// record's framing. The pad extends whatever zero run ends b; only when that
// run stays shorter than minZeroRun are its zeros written, as the end of the
// last literal.
func writeZeroRLE(w *Writer, b []byte, pad int) {
	total := len(b) + pad
	w.Int(total)
	for i := 0; i < total; {
		runStart, runEnd := nextZeroRun(b, i, total)
		w.Int(runStart - i)
		w.buf = append(w.buf, b[i:min(runStart, len(b))]...)
		if runStart > len(b) {
			w.buf = append(w.buf, make([]byte, runStart-len(b))...) // no run: the pad ends the literal
		}
		w.Int(runEnd - runStart)
		i = runEnd
	}
}

// nextZeroRun returns the first maximal run of at least minZeroRun zero bytes
// at or after i in the image b followed by total-len(b) zero bytes, or
// (total, total) when there is none. It reads b a word at a time, and only one
// word in three until one is zero: a run of minZeroRun (32) zeros starting at
// or after j covers three consecutive words of the grid j, j+8, j+16, …, so it
// covers one of the words j, j+24, j+48, …. A zero word found that way is
// grown to its maximal run; one shorter than minZeroRun ends at a non-zero
// byte, and the scan starts a new grid there.
func nextZeroRun(b []byte, i, total int) (start, end int) {
	j := i
	for ; j+8 <= len(b); j += stride {
		if binary.LittleEndian.Uint64(b[j:]) != 0 {
			continue
		}
		start, end = j, j+8
		for start > i && b[start-1] == 0 {
			start--
		}
		for end+8 <= len(b) && binary.LittleEndian.Uint64(b[end:]) == 0 {
			end += 8
		}
		for end < len(b) && b[end] == 0 {
			end++
		}
		if end == len(b) {
			end = total // the pad goes on with the run
		}
		if end-start >= minZeroRun {
			return start, end
		}
		if end == total {
			return total, total
		}
		j = end - stride
	}
	// A run of minZeroRun zeros inside b would have covered a word of the
	// grid: only a run that b's last few bytes start and the pad finishes can
	// remain.
	start = len(b)
	for start > i && b[start-1] == 0 {
		start--
	}
	if total-start >= minZeroRun {
		return start, total
	}
	return total, total
}

// stride is nextZeroRun's step: the grid words a run of minZeroRun zeros must
// cover one of.
const stride = (minZeroRun/8 - 1) * 8

// readZeroRLE decodes a stream written by writeZeroRLE into buf's storage —
// reallocated when too small, overwritten from its start otherwise: every
// literal is copied and every zero run cleared, so dirty scratch is fine —
// setting the reader's sticky error on any malformed field.
func readZeroRLE(r *Reader, buf []byte) []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxImageBytes {
		r.err = fmt.Errorf("codec: zero-RLE length %d out of range", n)
		return nil
	}
	out := buf[:0]
	if cap(out) < n {
		out = make([]byte, 0, n)
	}
	for len(out) < n {
		lit := r.Int()
		if r.err != nil {
			return nil
		}
		if lit < 0 || lit > n-len(out) || r.off+lit > len(r.buf) {
			r.err = fmt.Errorf("codec: zero-RLE literal length %d out of range", lit)
			return nil
		}
		out = append(out, r.buf[r.off:r.off+lit]...)
		r.off += lit
		zeros := r.Int()
		if r.err != nil {
			return nil
		}
		if zeros < 0 || zeros > n-len(out) {
			r.err = fmt.Errorf("codec: zero-RLE run length %d out of range", zeros)
			return nil
		}
		out = out[:len(out)+zeros] // within capacity: zeros <= n-len(out)
		clear(out[len(out)-zeros:])
	}
	return out
}
