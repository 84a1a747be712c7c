package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The chain decoders as they were before replay went through Replayer: every
// image, page and zero run freshly allocated. Kept compiled as the reference
// TestReplayScratchMatchesFresh and FuzzDeltaCodecRoundTrip hold the scratch
// path to, error text included.

func refReadZeroRLE(r *Reader) []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxImageBytes {
		r.err = fmt.Errorf("codec: zero-RLE length %d out of range", n)
		return nil
	}
	out := make([]byte, 0, n)
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
		out = append(out, make([]byte, zeros)...)
	}
	return out
}

func refDecodeBaseImage(payload []byte) ([]byte, error) {
	r := NewReader(payload)
	if m := r.U64(); r.err == nil && m != baseMagic {
		return nil, fmt.Errorf("codec: not a base image (magic %#x)", m)
	}
	img := refReadZeroRLE(r)
	if r.err != nil {
		return nil, r.err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after base image", r.Remaining())
	}
	return img, nil
}

func refApplyDelta(prev, payload []byte) ([]byte, error) {
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
	out := make([]byte, total)
	copy(out, prev)
	last := -1
	for i := 0; i < npages; i++ {
		idx := r.Int()
		page := refReadZeroRLE(r)
		if r.err != nil {
			return nil, r.err
		}
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

func refReconstructImage(chain [][]byte) ([]byte, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("codec: empty checkpoint chain")
	}
	img, err := refDecodeBaseImage(chain[0])
	if err != nil {
		return nil, err
	}
	for i, d := range chain[1:] {
		img, err = refApplyDelta(img, d)
		if err != nil {
			return nil, fmt.Errorf("codec: applying chain link %d: %w", i+1, err)
		}
	}
	return img, nil
}

// sameOutcome reports how (got, gerr) departs from the reference's
// (want, werr): both fail with the same text, or both yield the same bytes.
func sameOutcome(got []byte, gerr error, want []byte, werr error) error {
	switch {
	case (gerr == nil) != (werr == nil), gerr != nil && gerr.Error() != werr.Error():
		return fmt.Errorf("error %v, reference says %v", gerr, werr)
	case gerr == nil && !bytes.Equal(got, want):
		return fmt.Errorf("image of %d bytes differs from the reference's %d", len(got), len(want))
	}
	return nil
}

// poisoned returns a buffer of the given capacity holding 0xFF throughout:
// scratch as dirty as scratch gets.
func poisoned(capacity int) []byte { return bytes.Repeat([]byte{0xFF}, capacity) }

// checkReplay holds every way of replaying chain to the reference: the fresh
// one-shot functions, and one Replayer per scratch size — none, short of the
// image, exactly it, longer — poisoned and then used twice in a row, the
// second time on the first's leavings.
func checkReplay(t testing.TB, chain [][]byte) {
	t.Helper()
	want, werr := refReconstructImage(chain)
	got, gerr := ReconstructImage(chain)
	if err := sameOutcome(got, gerr, want, werr); err != nil {
		t.Fatalf("fresh replay: %v", err)
	}
	for _, capacity := range []int{0, len(want) / 2, len(want), 2*len(want) + 100} {
		rp := Replayer{img: poisoned(capacity), page: poisoned(capacity / 3)}
		for pass := 0; pass < 2; pass++ {
			got, gerr := rp.Replay(chain)
			if err := sameOutcome(got, gerr, want, werr); err != nil {
				t.Fatalf("scratch of capacity %d, pass %d: %v", capacity, pass, err)
			}
		}
	}
}

// checkApplyDelta holds ApplyDelta to the reference and to its contract that
// prev is only read — not even the spare capacity behind it, where an
// in-place application would put a grown image.
func checkApplyDelta(t testing.TB, prev, payload []byte) {
	t.Helper()
	room := append(append(make([]byte, 0, 2*len(prev)+64), prev...), poisoned(len(prev)+64)...)
	arg, before := room[:len(prev)], bytes.Clone(room)
	want, werr := refApplyDelta(prev, payload)
	got, gerr := ApplyDelta(arg, payload)
	if err := sameOutcome(got, gerr, want, werr); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if !bytes.Equal(room, before) {
		t.Fatal("ApplyDelta wrote its prev argument or the capacity behind it")
	}
}

// TestReplayScratchMatchesFresh is the differential for replay into reused
// buffers: generated chains of every length a scheme writes, whose image
// grows and shrinks along the chain and mixes all-zero, zero-free and sparse
// pages, must replay through dirty scratch of any size to exactly what the
// allocating reference yields — and every truncation and corruption of a
// link must fail (or, there being no checksum, parse) exactly as it does
// there.
func TestReplayScratchMatchesFresh(t *testing.T) {
	const maxChain = 4 // ckpt.BaseEvery
	rng := rand.New(rand.NewSource(22))
	image := func(pageSize int) []byte {
		img := make([]byte, rng.Intn(6*pageSize+2))
		for off := 0; off < len(img); off += pageSize {
			page := img[off:min(off+pageSize, len(img))]
			switch rng.Intn(3) {
			case 0: // all zero
			case 1: // no zero anywhere
				for i := range page {
					page[i] = byte(1 + rng.Intn(255))
				}
			default: // sparse: long zero runs between literals
				for i := 0; i < len(page); i += 1 + rng.Intn(200) {
					page[i] = byte(rng.Intn(256))
				}
			}
		}
		return img
	}
	for _, pageSize := range []int{1, 64, 4096} {
		for length := 1; length <= maxChain; length++ {
			for trial := 0; trial < 6; trial++ {
				imgs := [][]byte{image(pageSize)}
				chain := [][]byte{EncodeBaseImage(imgs[0])}
				for len(chain) < length {
					next := image(pageSize)
					if prev := imgs[len(imgs)-1]; rng.Intn(2) == 0 {
						copy(next, prev) // mostly clean pages: a real delta
					}
					chain = append(chain, EncodeDelta(imgs[len(imgs)-1], next, pageSize))
					imgs = append(imgs, next)
				}
				if got, err := refReconstructImage(chain); err != nil || !bytes.Equal(got, imgs[len(imgs)-1]) {
					t.Fatalf("reference replay of a genuine chain: %v", err)
				}
				checkReplay(t, chain)
				for k := 1; k < len(chain); k++ {
					checkApplyDelta(t, imgs[k-1], chain[k])
				}

				// Damage one link at a time: cut short, or one bit flipped —
				// the lowest or the highest of its byte, so that a hit on a
				// length field asks for 16 MiB at most or is out of range.
				for k, link := range chain {
					for d := 0; d < 6 && len(link) > 0; d++ {
						bad := bytes.Clone(link)
						if d%2 == 0 {
							bad = bad[:rng.Intn(len(bad))]
						} else {
							bad[rng.Intn(len(bad))] ^= []byte{0x01, 0x80}[rng.Intn(2)]
						}
						damaged := append([][]byte(nil), chain...)
						damaged[k] = bad
						checkReplay(t, damaged)
						if k > 0 {
							checkApplyDelta(t, imgs[k-1], bad)
						}
					}
				}
			}
		}
	}
	checkReplay(t, nil)
}
