package codec

import (
	"bytes"
	"slices"
	"testing"
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
// snapshot and pad, and page size, the base payload, the delta payload and
// the dirty-page set are byte-identical to the ones the padded images give.
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

		w := GetWriter()
		if got, want := EncodeBaseImageTo(w, cur, int(pad)), refEncodeBase(curImg); !bytes.Equal(got, want) {
			t.Fatalf("base payload of %d+%d bytes: %d bytes, the padded image encodes to %d", len(cur), pad, len(got), len(want))
		}
		w.Free()

		w = GetWriter()
		d := EncodeDeltaTo(w, prev, int(prevPad), cur, int(pad), page)
		if want := refEncodeDelta(prevImg, curImg, page); !bytes.Equal(d, want) {
			t.Fatalf("delta payload of %d+%d against %d+%d bytes, page %d: %d bytes, the padded images encode to %d",
				len(cur), pad, len(prev), prevPad, page, len(d), len(want))
		}
		if got, err := ApplyDelta(prevImg, d); err != nil || !bytes.Equal(got, curImg) {
			t.Fatalf("delta does not replay to the padded image: %v", err)
		}
		w.Free()

		if got, want := DirtyPages(prevImg, curImg, page), refDirtyPages(prevImg, curImg, page); !slices.Equal(got, want) {
			t.Fatalf("dirty pages %v, the reference finds %v", got, want)
		}
	})
}
