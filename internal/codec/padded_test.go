package codec

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"
)

// The encoders as they were before they took a bare snapshot and a pad count:
// the padded image materialised, every page of it compared, every byte of it
// scanned one at a time for zero runs. Kept compiled as the reference
// FuzzPaddedEncode holds the product encoders to, byte for byte.

func refZeroRLE(w *Writer, b []byte) {
	w.Int(len(b))
	for i := 0; i < len(b); {
		// Find the next zero run of at least minZeroRun bytes at or after i.
		runStart, runEnd := len(b), len(b)
		for j := i; j < len(b); {
			if b[j] != 0 {
				j++
				continue
			}
			k := j + 1
			for k < len(b) && b[k] == 0 {
				k++
			}
			if k-j >= minZeroRun {
				runStart, runEnd = j, k
				break
			}
			j = k
		}
		w.Int(runStart - i)
		w.buf = append(w.buf, b[i:runStart]...)
		w.Int(runEnd - runStart)
		i = runEnd
	}
}

// refPagesEqual reports whether curPage equals the slice of prev starting at
// off, with prev treated as zero-extended past its end.
func refPagesEqual(prev []byte, curPage []byte, off int) bool {
	overlap := len(prev) - off
	if overlap < 0 {
		overlap, off = 0, len(prev)
	}
	if overlap > len(curPage) {
		overlap = len(curPage)
	}
	if !bytes.Equal(prev[off:off+overlap], curPage[:overlap]) {
		return false
	}
	for _, b := range curPage[overlap:] {
		if b != 0 {
			return false
		}
	}
	return true
}

func refDirtyPages(prev, cur []byte, pageSize int) []int {
	var dirty []int
	for off, idx := 0, 0; off < len(cur); off, idx = off+pageSize, idx+1 {
		end := min(off+pageSize, len(cur))
		if !refPagesEqual(prev, cur[off:end], off) {
			dirty = append(dirty, idx)
		}
	}
	return dirty
}

func refEncodeBase(img []byte) []byte {
	w := NewWriter()
	w.U64(baseMagic)
	refZeroRLE(w, img)
	return w.Bytes()
}

func refEncodeDelta(prev, cur []byte, pageSize int) []byte {
	dirty := refDirtyPages(prev, cur, pageSize)
	w := NewWriter()
	w.U64(deltaMagic)
	w.Int(len(cur))
	w.Int(len(prev))
	w.Int(pageSize)
	w.Int(len(dirty))
	for _, idx := range dirty {
		off := idx * pageSize
		w.Int(idx)
		refZeroRLE(w, cur[off:min(off+pageSize, len(cur))])
	}
	return w.Bytes()
}

// within reports whether b lies in s's memory.
func within(b, s []byte) bool {
	if len(b) == 0 || len(s) == 0 {
		return false
	}
	pb, ps := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return ps <= pb && pb+uintptr(len(b)) <= ps+uintptr(len(s))
}

// snapLiterals counts the literal bytes of a base or delta payload that lie in
// the snapshot, its image's first snapLen bytes; a literal's bytes past them
// are the pad's zeros.
func snapLiterals(payload []byte, snapLen int, delta bool) int {
	r := NewReader(payload)
	r.U64()
	n, pages, pageSize := 0, 1, 0
	if delta {
		r.Int()
		r.Int()
		pageSize = r.Int()
		pages = r.Int()
	}
	for range pages {
		at := 0 // the image offset of the stream's first byte
		if delta {
			at = r.Int() * pageSize
		}
		for end := at + r.Int(); at < end; {
			lit := r.Int()
			n += max(0, min(at+lit, snapLen)-at)
			r.off += lit
			at += lit + r.Int()
		}
	}
	return n
}

// padded materialises an image: b followed by pad zero bytes.
func padded(b []byte, pad int) []byte {
	return append(append([]byte(nil), b...), make([]byte, pad)...)
}

// shaped expands a fuzz input into an image whose zero runs sit where the
// encoders decide things: a byte below 0x80 appends c%48 zeros — runs of 31,
// 32 and 33 bytes among them, landing at every offset within a word — any
// other byte appends itself.
func shaped(in []byte) []byte {
	var out []byte
	for _, c := range in {
		if c < 0x80 {
			out = append(out, make([]byte, c%48)...)
		} else {
			out = append(out, c)
		}
	}
	return out
}

// FuzzPaddedEncode holds the encoders that read a bare snapshot and a pad
// count to the materialising references: for any snapshot and pad, previous
// snapshot and pad, and page size, the gathered base and delta payloads —
// the snapshot handed as its pages, zero runs crossing them — join to the
// bytes the padded images give, with every literal byte a borrow of the
// snapshot and nothing else outside it but framing and the pad's literal
// zeros; the delta is written of the padded images' dirty pages (the compare
// itself is the checkpointer's, held to EncodeDelta by ckpt's
// FuzzSharedImage). The one-buffer encoders and the dirty-page set match
// their references too.
// The previous snapshot shares a fuzzed prefix with the current one, so deltas
// carry clean pages as well as dirty ones.
func FuzzPaddedEncode(f *testing.F) {
	run := func(n int) byte { return byte(n) } // a zero run of n < 48 bytes, in shaped's alphabet
	for _, n := range []int{31, 32, 33} {
		for lead := 0; lead < 9; lead++ {
			in := append(bytes.Repeat([]byte{0xff}, lead), run(n), 0xfe)
			f.Add(in, in[:lead], uint16(lead), uint16(n-lead), uint16(32-lead), uint16(8))
		}
	}
	f.Add([]byte{}, []byte{}, uint16(0), uint16(0), uint16(0), uint16(1))
	f.Add([]byte{run(5)}, []byte{0x80, run(7)}, uint16(0), uint16(40), uint16(27), uint16(64)) // a snapshot of zeros the pad finishes
	f.Add([]byte{0x90, run(40), 0x91}, []byte{0x92}, uint16(2), uint16(4096), uint16(100), uint16(4096))
	f.Add(bytes.Repeat([]byte{0x81, run(20), 0x82, run(33)}, 40), []byte{run(47), 0x83}, uint16(500), uint16(65000), uint16(64), uint16(256))

	f.Fuzz(func(t *testing.T, curIn, prevIn []byte, common, pad, prevPad, pageSize uint16) {
		cur := shaped(curIn)
		keep := int(common) % (len(cur) + 1)
		prev := append(cur[:keep:keep], shaped(prevIn)...)
		page := max(int(pageSize)%8192, 1)
		curImg, prevImg := padded(cur, int(pad)), padded(prev, int(prevPad))

		// The image goes to the gather encoders as the pages a holder keeps, the
		// pad as a count; every literal byte of cur must be a borrow of it.
		pages := pagesOf(cur, page)
		var g Gatherer
		check := func(what string, parts [][]byte, want []byte) []byte {
			t.Helper()
			got := bytes.Join(parts, nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s payload of %d+%d bytes (page %d, against %d+%d): %d bytes, the padded images encode to %d",
					what, len(cur), pad, page, len(prev), prevPad, len(got), len(want))
			}
			outside := 0
			for _, part := range parts {
				if !within(part, cur) {
					outside += len(part)
				}
			}
			if lits := snapLiterals(want, len(cur), what == "delta"); outside != len(want)-lits {
				t.Fatalf("%s payload: %d bytes outside the snapshot, want all but its %d literal bytes in the snapshot: %d",
					what, outside, lits, len(want)-lits)
			}
			return got
		}
		check("base", g.Base(pages, int(pad)), refEncodeBase(curImg))
		d := check("delta", g.Delta(len(prevImg), pages, int(pad), page, DirtyPages(prevImg, curImg, page)), refEncodeDelta(prevImg, curImg, page))
		if got, err := ApplyDelta(prevImg, d); err != nil || !bytes.Equal(got, curImg) {
			t.Fatalf("delta does not replay to the padded image: %v", err)
		}
		if !bytes.Equal(EncodeBaseImage(curImg), refEncodeBase(curImg)) || !bytes.Equal(EncodeDelta(prevImg, curImg, page), refEncodeDelta(prevImg, curImg, page)) {
			t.Fatal("the one-buffer encoders differ from the references")
		}

		if got, want := DirtyPages(prevImg, curImg, page), refDirtyPages(prevImg, curImg, page); !slices.Equal(got, want) {
			t.Fatalf("dirty pages %v, the reference finds %v", got, want)
		}
	})
}
