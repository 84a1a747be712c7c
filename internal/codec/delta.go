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

// EncodeBaseImage encodes a full image as a zero-run-compressed base payload,
// in one buffer.
func EncodeBaseImage(cur []byte) []byte {
	g := Gatherer{flat: true}
	g.base([][]byte{cur}, 0)
	return g.w.Bytes()
}

// decodeBaseImage decodes a base payload produced by EncodeBaseImage into
// buf's storage (see readZeroRLE).
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

// EncodeDelta encodes the pages of cur that differ from prev, in one buffer.
// prev is the previous image in the chain (zero-extended or truncated if the
// state changed size); pageSize is the app's StatePageSize. The payload
// replays against exactly len(prev) bytes — ApplyDelta enforces the match,
// which is what makes a broken chain detectable.
func EncodeDelta(prev, cur []byte, pageSize int) []byte {
	dirty := DirtyPages(prev, cur, pageSize)
	var pages [][]byte
	for lo := 0; lo < len(cur); lo += pageSize {
		pages = append(pages, cur[lo:min(lo+pageSize, len(cur))])
	}
	g := Gatherer{flat: true}
	g.delta(len(prev), pages, 0, pageSize, dirty)
	return g.w.Bytes()
}

// A Gatherer encodes base and delta payloads as the parts they join from, so
// an image's literal bytes travel as borrowed slices of its pages instead of
// as copies. The framing — magic, lengths, page indices, zero-run record
// headers, and the few zeros a pad ends a literal with — goes into one freshly
// owned buffer of its exact size; every literal is a sub-slice of the pages
// the image is handed as, which nothing may write while a part borrows them.
// The image is its pages joined, each pageSize bytes but the last, followed
// by pad zero bytes that are never materialised. A Gatherer keeps its scratch
// from one payload to the next, so its owner's steady-state encodes allocate
// only the framing and the list of parts they return. The zero value is ready
// to use; EncodeBaseImage and EncodeDelta are the same encoders on a flat
// Gatherer, which copies its literals into the one buffer it returns.
type Gatherer struct {
	w     Writer   // the framing under construction; flat: the whole payload
	parts [][]byte // borrowed literals, and a nil for each framing part
	cuts  []int    // where each framing part ends in w.buf, in order
	flat  bool
}

// Base returns the parts of the base payload of the image held as pages.
func (g *Gatherer) Base(pages [][]byte, pad int) [][]byte {
	g.reset()
	g.base(pages, pad)
	return g.done()
}

// Delta returns the parts of the delta payload of the pages dirty (ascending
// indices) of the image held as pages, against an image of prevLen bytes. It
// compares nothing: dirty is the caller's, and must be the page set
// DirtyPages gives for the two images. A dirty page past pages lies in the pad
// and is all zeros.
func (g *Gatherer) Delta(prevLen int, pages [][]byte, pad, pageSize int, dirty []int) [][]byte {
	g.reset()
	g.delta(prevLen, pages, pad, pageSize, dirty)
	return g.done()
}

func (g *Gatherer) reset() {
	g.w.buf, g.parts, g.cuts = g.w.buf[:0], g.parts[:0], g.cuts[:0]
}

func (g *Gatherer) base(pages [][]byte, pad int) {
	g.w.U64(baseMagic)
	g.zeroRLE(pages, pad)
}

func (g *Gatherer) delta(prevLen int, pages [][]byte, pad, pageSize int, dirty []int) {
	if pageSize <= 0 {
		panic("codec: page size must be positive")
	}
	total := pad
	for _, p := range pages {
		total += len(p)
	}
	g.w.U64(deltaMagic)
	g.w.Int(total)
	g.w.Int(prevLen)
	g.w.Int(pageSize)
	g.w.Int(len(dirty))
	for _, idx := range dirty {
		n := min(idx*pageSize+pageSize, total) - idx*pageSize
		g.w.Int(idx)
		if idx < len(pages) {
			g.zeroRLE(pages[idx:idx+1], n-len(pages[idx]))
		} else {
			g.zeroRLE(nil, n)
		}
	}
}

// borrow appends b, a literal's bytes, to the payload.
func (g *Gatherer) borrow(b []byte) {
	if g.flat {
		g.w.buf = append(g.w.buf, b...)
		return
	}
	g.cut()
	g.parts = AppendPart(g.parts, b)
}

// cut makes the framing written since the last part a part.
func (g *Gatherer) cut() {
	last := 0
	if len(g.cuts) > 0 {
		last = g.cuts[len(g.cuts)-1]
	}
	if len(g.w.buf) > last {
		g.parts, g.cuts = append(g.parts, nil), append(g.cuts, len(g.w.buf))
	}
}

// done returns the payload's parts: the framing moved into a buffer of its own
// and a list of its own, the scratch keeping no page reachable.
func (g *Gatherer) done() [][]byte {
	g.cut()
	frame := make([]byte, len(g.w.buf))
	copy(frame, g.w.buf)
	parts := make([][]byte, len(g.parts))
	size, at, k := 0, 0, 0
	for i, p := range g.parts {
		if p == nil {
			p, at, k = frame[at:g.cuts[k]:g.cuts[k]], g.cuts[k], k+1
		}
		parts[i] = p
		size += len(p)
	}
	clear(g.parts)
	countEncoded(size)
	return parts
}

// AppendPart appends b, which must not be empty, to parts — the slices a
// gathered stream joins from — extending the last part instead when b
// continues its memory: the pages of one lent snapshot travel as one part.
func AppendPart(parts [][]byte, b []byte) [][]byte {
	if n := len(parts); n > 0 {
		if last := parts[n-1]; cap(last) > len(last) && &last[:len(last)+1][len(last)] == &b[0] {
			parts[n-1] = last[:len(last)+len(b)]
			return parts
		}
	}
	return append(parts, b)
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

// zeroRLE appends the image joined from segs followed by pad zero bytes as a
// zero-run-compressed stream: the decoded length, then (literal length,
// literal bytes, zero-run length) records until the length is covered. Only
// maximal runs of at least minZeroRun zeros become holes, so the stream never
// grows by more than one record's framing. A run may cross from one segment
// into the next and on into the pad; only when the run that reaches the end
// stays shorter than minZeroRun are the pad's zeros written, as the end of the
// last literal.
func (g *Gatherer) zeroRLE(segs [][]byte, pad int) {
	rs := rleStream{g: g, segs: segs}
	total := pad
	for _, p := range segs {
		total += len(p)
	}
	g.w.Int(total)
	zeros, off := 0, 0 // a zero run [zeros, off) reaches the segment at off
	for _, p := range segs {
		i := leadingZeros(p)
		if i == len(p) {
			off += len(p)
			continue
		}
		if off+i-zeros >= minZeroRun {
			rs.record(zeros, off+i)
		}
		for {
			// Past p, a run could go on: pretend minZeroRun zeros follow, and a
			// run that reaches p's end is reported as ending past it.
			start, end := nextZeroRun(p, i, len(p)+minZeroRun)
			if end > len(p) {
				zeros = off + start
				break
			}
			rs.record(off+start, off+end)
			i = end
		}
		off += len(p)
	}
	if total-zeros >= minZeroRun {
		rs.record(zeros, total)
	}
	if rs.at < total {
		rs.record(total, total)
	}
}

// rleStream writes zeroRLE's records, reading literals from segs in order.
type rleStream struct {
	g        *Gatherer
	segs     [][]byte
	seg, off int // the next unread byte is segs[seg][off]
	at       int // the image offset records cover up to
}

// record writes the record of the literal up to runStart and the zero run
// [runStart, runEnd).
func (rs *rleStream) record(runStart, runEnd int) {
	rs.g.w.Int(runStart - rs.at)
	rs.take(runStart-rs.at, true)
	rs.g.w.Int(runEnd - runStart)
	rs.take(runEnd-runStart, false)
	rs.at = runEnd
}

// take moves n bytes on through the image, borrowing them when literal; the
// pad's bytes of a literal are written as the zeros they are.
func (rs *rleStream) take(n int, literal bool) {
	for n > 0 && rs.seg < len(rs.segs) {
		p := rs.segs[rs.seg][rs.off:]
		k := min(n, len(p))
		if literal && k > 0 {
			rs.g.borrow(p[:k])
		}
		n, rs.off = n-k, rs.off+k
		if rs.off == len(rs.segs[rs.seg]) {
			rs.seg, rs.off = rs.seg+1, 0
		}
	}
	if literal && n > 0 {
		rs.g.w.buf = append(rs.g.w.buf, make([]byte, n)...)
	}
}

// leadingZeros counts the zero bytes b starts with, a word at a time.
func leadingZeros(b []byte) int {
	i := 0
	for i+8 <= len(b) && binary.LittleEndian.Uint64(b[i:]) == 0 {
		i += 8
	}
	for i < len(b) && b[i] == 0 {
		i++
	}
	return i
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
