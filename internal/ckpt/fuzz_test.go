package ckpt

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/mp"
	"repro/internal/par"
)

// ints encodes its arguments as the record formats do, 8 bytes each.
func ints(vs ...int) []byte {
	w := codec.NewWriter()
	for _, v := range vs {
		w.Int(v)
	}
	return w.Bytes()
}

// TestDecodersRejectHostileCounts: a count the blob cannot hold is a corrupt
// header, not the capacity of an allocation (a 16-byte file promising 2^40
// deps ended the process with "out of memory" rather than failing the oracle
// cell that read it).
func TestDecodersRejectHostileCounts(t *testing.T) {
	_, fileErr := DecodeCkptFile(Indep, ints(1, 1<<40))
	_, incErr := DecodeCkptFile(IndepInc, ints(1, 0, 1<<40))
	_, logErr := DecodeChanLog(ints(1 << 40))
	for name, err := range map[string]error{"checkpoint file": fileErr, "incremental file": incErr, "channel log": logErr} {
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s with a 2^40 count: %v, want a corrupt-header error", name, err)
		}
	}
	// The bound is exact: a count the remaining bytes do hold still decodes.
	file := encodeCkptFile(Indep, CkptFile{Index: 1, Deps: []Dep{{1, 2}, {3, 4}}}, 0)
	if f, err := DecodeCkptFile(Indep, file); err != nil || len(f.Deps) != 2 {
		t.Fatalf("two deps and two empty sections: %v", err)
	}
	log := encodeChanLog([]*mp.Message{{Src: 1}, {Src: 2}})
	if msgs, err := DecodeChanLog(log); err != nil || len(msgs) != 2 {
		t.Fatalf("two empty messages: %v", err)
	}
}

// FuzzCkptFileDecode feeds arbitrary bytes to the decoders of everything the
// schemes make durable — checkpoint files with and without a chain pointer,
// channel logs — which must fail cleanly or decode to something that encodes
// back to the very bytes read: never panic, never size an allocation from the
// input.
func FuzzCkptFileDecode(f *testing.F) {
	deps := []Dep{{SrcRank: 3, SrcIndex: 7}, {SrcRank: 0, SrcIndex: 1}}
	real := [][]byte{
		encodeCkptFile(Indep, CkptFile{Index: 4, Deps: deps, State: []byte("state"), Lib: []byte("lib")}, 70),
		encodeCkptFile(CIC, CkptFile{Index: 9, State: []byte{1}}, 0),
		encodeCkptFile(IndepInc, CkptFile{Index: 5, Prev: 4, Deps: deps, State: codec.EncodeDelta(nil, []byte("img"), 2), Lib: []byte("lib")}, 0),
		encodeCkptFile(CoordNBInc, CkptFile{Index: 2, State: codec.EncodeBaseImage(make([]byte, 300))}, 0),
		encodeChanLog([]*mp.Message{{Src: 1, Tag: 5, Meta: par.Piggyback{9, 2}, Data: []byte("abc")}, {Src: 2}}),
		newMetaRecord(3),
		ints(1, 1<<40),
	}
	for _, b := range real {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []Variant{Indep, IndepInc} {
			file, err := DecodeCkptFile(v, data)
			if err != nil {
				continue
			}
			if again := encodeCkptFile(v, file, 0); !bytes.HasPrefix(data, again) {
				t.Fatalf("%v: decoded %+v, which encodes to other bytes than were read", v, file)
			}
		}
		if msgs, err := DecodeChanLog(data); err == nil && !bytes.HasPrefix(data, encodeChanLog(msgs)) {
			t.Fatalf("decoded a channel log of %d messages that encodes to other bytes than were read", len(msgs))
		}
		_, _ = ParseMetaRecord(data)
	})
}
