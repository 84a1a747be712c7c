package ckpt

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/storage"
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
	_, fileErr := decodeCkptFile(Indep, ints(1, 1<<40))
	_, incErr := decodeCkptFile(IndepInc, ints(1, 0, 1<<40))
	_, logErr := DecodeChanLog(ints(1 << 40))
	for name, err := range map[string]error{"checkpoint file": fileErr, "incremental file": incErr, "channel log": logErr} {
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s with a 2^40 count: %v, want a corrupt-header error", name, err)
		}
	}
	// The bound is exact: a count the remaining bytes do hold still decodes.
	file := flatCkptFile(Indep, CkptFile{Index: 1, Deps: []Dep{{1, 2}, {3, 4}}}, 0)
	if f, err := decodeCkptFile(Indep, file); err != nil || len(f.Deps) != 2 {
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
// input. It then drives the one reader under every variant with the bytes as
// every file on storage: a head read fails exactly when the decoder does and
// names the index the decoder finds; a record reads only as the index it
// names, and, since every link would name that index too, only as a lone base
// — a hostile Prev or a wrong index is an error, never a panic or a loop.
func FuzzCkptFileDecode(f *testing.F) {
	deps := []Dep{{SrcRank: 3, SrcIndex: 7}, {SrcRank: 0, SrcIndex: 1}}
	real := [][]byte{
		flatCkptFile(Indep, CkptFile{Index: 4, Deps: deps, State: []byte("state"), Lib: []byte("lib")}, 70),
		flatCkptFile(CIC, CkptFile{Index: 9, State: []byte{1}}, 0),
		flatCkptFile(CoordNB, CkptFile{Index: 1, State: []byte("image")}, 40),
		flatCkptFile(IndepInc, CkptFile{Index: 5, Prev: 4, Deps: deps, State: codec.EncodeDelta(nil, []byte("img"), 2), Lib: []byte("lib")}, 0),
		flatCkptFile(CoordNBInc, CkptFile{Index: 2, State: codec.EncodeBaseImage(make([]byte, 300))}, 0),
		encodeChanLog([]*mp.Message{{Src: 1, Tag: 5, Meta: par.Piggyback{9, 2}, Data: []byte("abc")}, {Src: 2}}),
		newMetaRecord(3),
		ints(1, 1<<40),
		flatCkptFile(IndepInc, CkptFile{Index: 5, Prev: 5, State: []byte{1}}, 0),
		flatCkptFile(CoordNBInc, CkptFile{Index: 3, Prev: 9, State: []byte{1}}, 0),
	}
	for _, b := range real {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []Variant{Indep, IndepInc} {
			file, err := decodeCkptFile(v, data)
			if err != nil {
				continue
			}
			if again := flatCkptFile(v, file, 0); !bytes.HasPrefix(data, again) {
				t.Fatalf("%v: decoded %+v, which encodes to other bytes than were read", v, file)
			}
		}
		if msgs, err := DecodeChanLog(data); err == nil && !bytes.HasPrefix(data, encodeChanLog(msgs)) {
			t.Fatalf("decoded a channel log of %d messages that encodes to other bytes than were read", len(msgs))
		}
		_, _ = ParseMetaRecord(data)

		fetch := func(string, []byte) ([]byte, error) { return data, nil }
		var rp Replayer
		for _, e := range variants {
			v := e.v
			named, err := decodeCkptFile(v, data)
			head, herr := rp.ReadHead(v, 0, 1, fetch)
			if (herr == nil) != (err == nil) || head.Index != named.Index || head.Prev != named.Prev {
				t.Fatalf("%v: the head read (%+v, %v) and the decoder (%+v, %v) disagree", v, head, herr, named, err)
			}
			index := max(named.Index, 1)
			img, rerr := rp.ReconstructCkpt(v, 0, index, fetch)
			switch {
			case rerr == nil && err != nil:
				t.Fatalf("%v: read checkpoint %d from a file the decoder refuses (%v)", v, index, err)
			case rerr == nil && (named.Index != index || v.Incremental() && named.Prev != 0):
				t.Fatalf("%v: read checkpoint %d from a file naming %d, prev %d", v, index, named.Index, named.Prev)
			case rerr == nil && !v.Incremental() && !bytes.Equal(img, named.State):
				t.Fatalf("%v: checkpoint %d read back as %d bytes, its record holds %d", v, index, len(img), len(named.State))
			}
			if _, err := rp.ReconstructCkpt(v, 0, index+1, fetch); err == nil {
				t.Fatalf("%v: read checkpoint %d from a file naming %d", v, index+1, index)
			}
		}
	})
}

// refSegments is writeSegmented's loop as it was while a checkpoint file
// was one contiguous buffer: the requests segmentFile must reproduce.
func refSegments(path string, data []byte, send func(req storage.Request, last bool)) {
	if len(data) == 0 {
		send(storage.Request{Op: storage.OpWrite, Path: path, Durable: true}, true)
		return
	}
	for off := 0; off < len(data); off += writeSegment {
		end := min(off+writeSegment, len(data))
		send(storage.Request{Op: storage.OpAppend, Path: path, Data: data[off:end], Durable: true}, end == len(data))
	}
}

// segmentParts turns fuzz input into a part-length list, two bytes a part: the
// first picks the kind of length — empty, a few bytes, whatever reaches the
// next segment boundary exactly, whole segments, a segment and a bit — and the
// second scales it.
func segmentParts(shape []byte) [][]byte {
	var file [][]byte
	total := 0
	for i := 0; i+1 < len(shape) && len(file) < 24; i += 2 {
		n, k := 0, int(shape[i+1])
		switch shape[i] % 6 {
		case 0: // empty
		case 1:
			n = k
		case 2:
			n = k * 257
		case 3:
			n = (writeSegment - total%writeSegment) % writeSegment
		case 4:
			n = (1 + k%3) * writeSegment
		case 5:
			n = writeSegment + k - 128
		}
		part := make([]byte, n)
		for j := range part {
			part[j] = byte(total + j + len(file)*13)
		}
		file = append(file, part)
		total += n
	}
	return file
}

// FuzzSegmentParts: for any list of slices — empty ones, none at all, totals
// that are whole segments, slice boundaries on segment boundaries — the
// gathered requests are the flat loop's requests over the joined bytes: as
// many, each as long, the same ones synchronous, and each one's Data and More
// joining to the flat request's Data, with nothing copied and no empty slice
// sent along.
func FuzzSegmentParts(f *testing.F) {
	f.Add([]byte{})                                 // no part
	f.Add([]byte{0, 0, 0, 0})                       // empty parts only
	f.Add([]byte{1, 40, 0, 0, 1, 0, 1, 9})          // a small file with empty parts inside
	f.Add([]byte{4, 0})                             // exactly one segment
	f.Add([]byte{4, 2, 0, 0})                       // exactly three, then an empty part
	f.Add([]byte{1, 40, 3, 0, 4, 1, 1, 7})          // a part boundary exactly on a segment boundary
	f.Add([]byte{1, 40, 2, 200, 4, 0, 5, 0, 1, 67}) // header, snapshot, zero pages, trailer
	f.Add([]byte{5, 127, 5, 129, 5, 128, 3, 0})     // a byte short of, past, and on the boundary
	f.Fuzz(func(t *testing.T, shape []byte) {
		file := segmentParts(shape)
		type sent struct {
			req  storage.Request
			last bool
		}
		var want, got []sent
		refSegments("f", bytes.Join(file, nil), func(req storage.Request, last bool) { want = append(want, sent{req, last}) })
		segmentFile("f", file, func(req storage.Request, last bool) { got = append(got, sent{req, last}) })
		if len(got) != len(want) {
			t.Fatalf("%d requests, the flat loop sends %d", len(got), len(want))
		}
		part, off := 0, 0 // where in file the next gathered slice must start
		for i, w := range want {
			g := got[i]
			if g.req.Op != w.req.Op || g.req.Path != w.req.Path || g.req.Durable != w.req.Durable || g.last != w.last || g.req.Len() != w.req.Len() {
				t.Fatalf("request %d: op %v, %d bytes, last %v; the flat loop sends op %v, %d bytes, last %v",
					i, g.req.Op, g.req.Len(), g.last, w.req.Op, w.req.Len(), w.last)
			}
			pieces := append([][]byte{g.req.Data}, g.req.More...)
			if !bytes.Equal(bytes.Join(pieces, nil), w.req.Data) {
				t.Fatalf("request %d: gathered bytes differ from the flat segment", i)
			}
			if w.req.Len() == 0 {
				continue // the empty file's one empty write
			}
			for _, piece := range pieces {
				for off == len(file[part]) {
					part, off = part+1, 0
				}
				if len(piece) == 0 || !sameBytes(piece, file[part][off:min(off+len(piece), len(file[part]))]) {
					t.Fatalf("request %d: a gathered slice of %d bytes is empty or not part %d's own memory at %d", i, len(piece), part, off)
				}
				off += len(piece)
			}
		}
	})
}
