package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

// mutate returns img with n pages touched at the given page size, using the
// seeded source for positions and values.
func mutate(img []byte, pageSize, n int, rng *rand.Rand) []byte {
	out := append([]byte(nil), img...)
	for i := 0; i < n && len(out) > 0; i++ {
		off := rng.Intn(len(out))
		out[off] ^= byte(1 + rng.Intn(255))
		_ = pageSize
	}
	return out
}

func TestBaseImageRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{1},
		make([]byte, 4096),               // all zeros
		bytes.Repeat([]byte{0xab}, 1000), // no zeros
		append(make([]byte, 100), 0xff),  // leading zeros
		append(bytes.Repeat([]byte{7}, 100), make([]byte, 5000)...), // trailing pad
	}
	for i, img := range cases {
		got, err := decodeBaseImage(nil, EncodeBaseImage(img))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, img) {
			t.Fatalf("case %d: round trip mismatch: got %d bytes, want %d", i, len(got), len(img))
		}
	}
}

func TestBaseImageCompressesPadding(t *testing.T) {
	// The guarantee the incremental schemes' StateBytes accounting rests on:
	// a payload for state padded with par-style zero padding is strictly
	// smaller than the padded image itself.
	state := make([]byte, 10000)
	rng := rand.New(rand.NewSource(42))
	rng.Read(state)
	padded := append(append([]byte(nil), state...), make([]byte, 64*1024)...)
	enc := EncodeBaseImage(padded)
	if len(enc) >= len(padded) {
		t.Fatalf("base payload is %d bytes, padded image only %d", len(enc), len(padded))
	}
}

func TestDeltaRoundTripAndChains(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, pageSize := range []int{1, 7, 64, 256, 4096} {
		for _, size := range []int{0, 1, 63, 64, 65, 1000, 8192} {
			img := make([]byte, size)
			rng.Read(img)
			chain := [][]byte{EncodeBaseImage(img)}
			cur := img
			for step := 0; step < 4; step++ {
				next := mutate(cur, pageSize, 1+rng.Intn(5), rng)
				d := EncodeDelta(cur, next, pageSize)
				got, err := ApplyDelta(cur, d)
				if err != nil {
					t.Fatalf("page %d size %d step %d: %v", pageSize, size, step, err)
				}
				if !bytes.Equal(got, next) {
					t.Fatalf("page %d size %d step %d: apply mismatch", pageSize, size, step)
				}
				chain = append(chain, d)
				cur = next
			}
			final, err := ReconstructImage(chain)
			if err != nil {
				t.Fatalf("page %d size %d: reconstruct: %v", pageSize, size, err)
			}
			if !bytes.Equal(final, cur) {
				t.Fatalf("page %d size %d: chain reconstruction diverged from final image", pageSize, size)
			}
		}
	}
}

func TestDeltaGrowingAndShrinkingState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prev := make([]byte, 1000)
	rng.Read(prev)
	for _, newSize := range []int{0, 500, 1000, 1500, 5000} {
		cur := make([]byte, newSize)
		rng.Read(cur)
		d := EncodeDelta(prev, cur, 64)
		got, err := ApplyDelta(prev, d)
		if err != nil {
			t.Fatalf("size %d: %v", newSize, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("size %d: apply mismatch", newSize)
		}
	}
}

func TestDeltaUnchangedImageIsTiny(t *testing.T) {
	img := bytes.Repeat([]byte{0x5a}, 64*1024)
	d := EncodeDelta(img, img, 4096)
	if len(d) > 64 {
		t.Fatalf("no-change delta is %d bytes", len(d))
	}
	got, err := ApplyDelta(img, d)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("no-change delta did not reproduce the image: %v", err)
	}
}

func TestDeltaChainMismatchErrors(t *testing.T) {
	a := bytes.Repeat([]byte{1}, 256)
	b := bytes.Repeat([]byte{2}, 256)
	d := EncodeDelta(a, b, 64)
	if _, err := ApplyDelta(a[:100], d); err == nil {
		t.Fatal("applying a delta against the wrong-size previous image succeeded")
	}
	if _, err := ApplyDelta(b, EncodeBaseImage(a)); err == nil {
		t.Fatal("applying a base payload as a delta succeeded")
	}
	if _, err := decodeBaseImage(nil, d); err == nil {
		t.Fatal("decoding a delta payload as a base succeeded")
	}
	if _, err := ReconstructImage([][]byte{d}); err == nil {
		t.Fatal("reconstructing a chain that starts with a delta succeeded")
	}
	if _, err := ReconstructImage(nil); err == nil {
		t.Fatal("reconstructing an empty chain succeeded")
	}
}

func TestDirtyPages(t *testing.T) {
	prev := make([]byte, 1000)
	cur := append([]byte(nil), prev...)
	if got := DirtyPages(prev, cur, 256); len(got) != 0 {
		t.Fatalf("identical images report dirty pages %v", got)
	}
	cur[300] = 9 // page 1
	cur[999] = 9 // page 3 (the short tail page)
	got := DirtyPages(prev, cur, 256)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("DirtyPages = %v, want [1 3]", got)
	}
	// Zero-extension: growing by all-zero bytes dirties nothing new.
	grown := append(append([]byte(nil), prev...), make([]byte, 500)...)
	if got := DirtyPages(prev, grown, 256); len(got) != 0 {
		t.Fatalf("zero-growth dirties pages %v", got)
	}
}

// FuzzDeltaCodecRoundTrip hardens the delta codec the way FuzzCodecRoundTrip
// hardens the scalar codec: arbitrary bytes fed to the decoders must error
// cleanly — never panic, never allocate unboundedly — and genuine encodings
// derived from the input must survive the round trip byte-exactly.
func FuzzDeltaCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{}, 64)
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 4}, 1)
	f.Add(make([]byte, 300), bytes.Repeat([]byte{9}, 200), 128)
	f.Add(EncodeBaseImage([]byte("seed")), []byte("x"), 32)

	f.Fuzz(func(t *testing.T, prev, cur []byte, pageSize int) {
		if pageSize <= 0 {
			pageSize = 1 - pageSize%4096
		}
		if pageSize > 1<<20 {
			pageSize = 1 << 20
		}

		// Genuine encodings round-trip exactly.
		if img, err := decodeBaseImage(nil, EncodeBaseImage(cur)); err != nil || !bytes.Equal(img, cur) {
			t.Fatalf("base round trip: %v", err)
		}
		d := EncodeDelta(prev, cur, pageSize)
		if got, err := ApplyDelta(prev, d); err != nil || !bytes.Equal(got, cur) {
			t.Fatalf("delta round trip: %v", err)
		}

		// Replay through poisoned scratch of every size, twice, is the
		// allocating reference's replay, and ApplyDelta only reads prev.
		checkReplay(t, [][]byte{EncodeBaseImage(prev), d, EncodeDelta(cur, prev, pageSize)})
		checkApplyDelta(t, prev, d)

		// Hostile payloads error — as the reference does, to the letter —
		// never panic: the raw inputs, truncations of a genuine delta, and
		// single-byte corruptions of one.
		_, _ = decodeBaseImage(nil, prev)
		checkApplyDelta(t, cur, prev)
		checkReplay(t, [][]byte{prev, cur})
		for _, cut := range []int{0, 7, 8, len(d) / 2, len(d) - 1} {
			if cut >= 0 && cut < len(d) {
				checkApplyDelta(t, prev, d[:cut])
				checkReplay(t, [][]byte{EncodeBaseImage(prev), d[:cut]})
			}
		}
		if len(d) > 8 {
			// Single-byte corruption must decode to an error or to some image
			// — there is no checksum, so a flip in a length field or literal
			// may still parse — but it must never panic.
			bad := append([]byte(nil), d...)
			bad[8+len(bad)%8] ^= 0xff
			checkApplyDelta(t, prev, bad)
		}
	})
}
