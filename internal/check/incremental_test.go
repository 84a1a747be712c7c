package check

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/codec"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/storage"
)

// TestIncrementalReconstructionProperty is the delta-chain property test over
// every application: each of the seven apps runs a seeded history under an
// incremental scheme (rotating through all three families), and at every
// committed checkpoint the audit reconstructs the base+delta chain from the
// durable files and requires it byte-identical to the full Snapshot() taken
// at the same round. The test then asserts the history actually contained
// both bases and deltas — a run of bases alone would verify nothing.
func TestIncrementalReconstructionProperty(t *testing.T) {
	cfg := par.DefaultConfig()
	o := NewOracle(cfg)
	schemes := []ckpt.Variant{ckpt.IndepInc, ckpt.CICInc, ckpt.CoordNBInc}
	for i, wl := range bench.QuickWorkloads() {
		wl, v := wl, schemes[i%len(schemes)]
		t.Run(fmt.Sprintf("%s_%v", wl.Name, v), func(t *testing.T) {
			b, err := o.baselineFor(wl)
			if err != nil {
				t.Fatal(err)
			}
			interval := b.exec / 8
			if interval < 1 {
				interval = 1
			}
			m := par.NewMachine(cfg)
			defer m.Shutdown()
			n := m.NumNodes()
			h := newHarness(n)
			a := newAudit(m, h, v)
			sch := ckpt.New(v, ckpt.Options{Interval: interval})
			sch.Attach(m)
			sch.SetCommitHook(a.onCommit)
			w := mp.NewWorld(m)
			h.Attach(w)
			for rank := 0; rank < n; rank++ {
				w.Launch(rank, &wrapped{inner: wl.Make(rank, n), h: h, rank: rank})
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			a.finish()
			if err := a.err(); err != nil {
				t.Fatalf("%s under %v: %v", wl.Name, v, err)
			}
			if a.checks == 0 {
				t.Fatal("audit ran no checks — the hooks are not attached")
			}
			bases, deltas := 0, 0
			for _, r := range sch.Records() {
				if r.Prev == 0 {
					bases++
				} else {
					deltas++
				}
			}
			if bases == 0 || deltas == 0 {
				t.Fatalf("history committed %d base and %d delta checkpoint(s); the chain property was never exercised", bases, deltas)
			}
		})
	}
}

// TestBrokenChainNamesDeltaRound pins the failure-report contract: when a
// base+delta chain cannot be resolved, the violation names the chain link —
// the delta round — that broke, so a minimal failing seed points straight at
// the offending checkpoint. The durable half runs a real IndepInc history and
// probes the audit with an index that was never written; the pure half breaks
// a chain pointer mid-walk.
func TestBrokenChainNamesDeltaRound(t *testing.T) {
	// Pure chain walk: index 9 points at 7, which fails to resolve.
	_, _, err := new(ckpt.Replayer).ReconstructCkpt(ckpt.IndepInc, 0, 9, func(path string, _ []byte) ([]byte, error) {
		if path == ckpt.IndepInc.StatePath(0, 9) {
			return encodeIncFile(ckpt.CkptFile{Index: 9, Prev: 7, State: []byte{1}}), nil
		}
		return nil, fmt.Errorf("not durable")
	})
	if err == nil {
		t.Fatal("broken chain resolved")
	}
	if !strings.Contains(err.Error(), "checkpoint 9") || !strings.Contains(err.Error(), "link 7") {
		t.Fatalf("error does not name the broken delta round: %v", err)
	}

	// Durable probe: run a real incremental history, then audit a checkpoint
	// index that never committed. The violation must name that index.
	_, a, sch := auditedRing(t, ckpt.IndepInc, ckpt.Options{Interval: 300_000})
	missing := 0
	for _, r := range sch.Records() {
		if r.Index > missing {
			missing = r.Index
		}
	}
	missing++
	a.checkFile("indep.durable", ckpt.Record{Rank: 0, Index: missing}, true)
	verr := a.err()
	if verr == nil {
		t.Fatalf("auditing never-written checkpoint %d produced no violation", missing)
	}
	if !strings.Contains(verr.Error(), "indep.durable") ||
		!strings.Contains(verr.Error(), fmt.Sprintf("ckpt %d", missing)) {
		t.Fatalf("violation does not name checkpoint %d: %v", missing, verr)
	}
}

// auditedRing runs the ring workload to completion under v with the audit
// armed, and requires the run clean.
func auditedRing(t *testing.T, v ckpt.Variant, opt ckpt.Options) (*par.Machine, *audit, ckpt.Scheme) {
	t.Helper()
	wl := bench.RingWorkload(256, 40, 2e5)
	m := par.NewMachine(par.DefaultConfig())
	t.Cleanup(m.Shutdown)
	n := m.NumNodes()
	h := newHarness(n)
	a := newAudit(m, h, v)
	sch := ckpt.New(v, opt)
	sch.Attach(m)
	sch.SetCommitHook(a.onCommit)
	w := mp.NewWorld(m)
	h.Attach(w)
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, &wrapped{inner: wl.Make(rank, n), h: h, rank: rank})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := a.err(); err != nil {
		t.Fatalf("clean run tripped the audit: %v", err)
	}
	return m, a, sch
}

// encodeIncFile writes a checkpoint file in the incremental record layout —
// the test's own encoder, so that damaged files can be put on the server.
func encodeIncFile(f ckpt.CkptFile) []byte {
	w := codec.NewWriter()
	w.Int(f.Index)
	w.Int(f.Prev)
	w.Int(len(f.Deps))
	for _, d := range f.Deps {
		w.Int(d.SrcRank)
		w.U64(d.SrcIndex)
	}
	w.Bytes8(f.State)
	w.Bytes8(f.Lib)
	return w.Bytes()
}

// TestCheaperAuditStillBites damages the durable bytes of a committed chain
// behind the audit's back and audits it again: comparing the replayed image in
// place — prefix against the sidecar snapshot, tail against zero — and
// replaying into reused scratch must catch everything that comparing against a
// materialised padded image caught, name the checkpoint or the link, and leave
// nothing behind that fails the next, clean audit on the same scratch. The
// end-of-run audit runs too: a misnamed file beside the head is stray.
func TestCheaperAuditStillBites(t *testing.T) {
	for _, c := range []struct {
		v          ckpt.Variant
		inv, exact string
	}{{ckpt.IndepInc, "indep.durable", "indep.exact"}, {ckpt.CoordNBInc, "coord.state-durable", "coord.exact"}} {
		v, inv, exact := c.v, c.inv, c.exact
		t.Run(v.String(), func(t *testing.T) {
			m, a, _ := auditedRing(t, v, ckpt.Options{Interval: 300_000, MaxCheckpoints: ckpt.BaseEvery})
			const rank, head = 0, ckpt.BaseEvery // the delta that ends a full chain
			var rec ckpt.Record
			for _, r := range a.committed {
				if r.Rank == rank && r.Index == head {
					rec = r
				}
			}
			store := m.StoreFor(rank)
			fetch := func(path string, _ []byte) ([]byte, error) {
				data, ok := store.Peek(path, nil)
				if !ok {
					return nil, fmt.Errorf("file %s not durable", path)
				}
				return data, nil
			}
			put := func(req storage.Request) {
				t.Helper()
				req.Durable = true
				req.Done = func(r storage.Reply) {
					if r.Err != nil {
						t.Errorf("damaging %s: %v", req.Path, r.Err)
					}
				}
				store.Submit(req)
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
			}
			img, file, err := new(ckpt.Replayer).ReconstructCkpt(v, rank, head, fetch)
			if err != nil {
				t.Fatal(err)
			}
			prevImg, prevFile, err := new(ckpt.Replayer).ReconstructCkpt(v, rank, file.Prev, fetch)
			if err != nil || prevFile.Prev == 0 {
				t.Fatalf("checkpoint %d does not end a chain with a middle link (prev %d, its prev %d): %v", head, file.Prev, prevFile.Prev, err)
			}
			path := v.StatePath(rank, head)
			original, _ := store.Peek(path, nil)
			if !bytes.Equal(encodeIncFile(file), original) {
				t.Fatal("the test's record encoder does not reproduce the durable file")
			}
			snapLen := len(img) - m.Cfg.CkptImageBytes

			// audit audits the committed file again on the same audit, then
			// the whole durable area as at the end of the run, and returns
			// what it found.
			audit := func() string {
				a.out = nil
				a.checkFile(inv, rec, true)
				a.finish()
				if err := a.err(); err != nil {
					return err.Error()
				}
				return ""
			}
			withImage := func(damaged []byte) storage.Request {
				f := file
				f.State = codec.EncodeDelta(prevImg, damaged, 4096)
				return storage.Request{Op: storage.OpWrite, Path: path, Data: encodeIncFile(f)}
			}
			flip := func(at int) []byte {
				b := bytes.Clone(img)
				b[at] ^= 0x40
				return b
			}
			middle := v.StatePath(rank, file.Prev)
			middleBytes, _ := store.Peek(middle, nil)
			names := fmt.Sprintf("rank %d ckpt %d", rank, head)
			misnamed := path[:strings.LastIndex(path, "/")+1] + "s3"
			for _, c := range []struct {
				name         string
				damage, mend storage.Request
				want         []string
			}{
				{"byte flipped in the state region", withImage(flip(snapLen / 2)), withImage(img), []string{"inc.chain-equals-snapshot", names}},
				{"last state byte flipped", withImage(flip(snapLen - 1)), withImage(img), []string{"inc.chain-equals-snapshot", names}},
				{"non-zero byte in the image tail", withImage(flip(len(img) - 1)), withImage(img), []string{"inc.chain-equals-snapshot", names}},
				{"first tail byte non-zero", withImage(flip(snapLen)), withImage(img), []string{"inc.chain-equals-snapshot", names}},
				{"image one byte short", withImage(img[:len(img)-1]), withImage(img), []string{"inc.chain-equals-snapshot", names}},
				{"image one byte long", withImage(append(bytes.Clone(img), 0)), withImage(img), []string{"inc.chain-equals-snapshot", names}},
				{"middle link deleted", storage.Request{Op: storage.OpDelete, Path: middle},
					storage.Request{Op: storage.OpWrite, Path: middle, Data: middleBytes},
					[]string{"inc.chain-resolves", fmt.Sprintf("link %d", file.Prev), "not durable"}},
				{"head link truncated", storage.Request{Op: storage.OpWrite, Path: path, Data: original[:len(original)-9]},
					storage.Request{Op: storage.OpWrite, Path: path, Data: original},
					[]string{inv, "undecodable", path, "corrupt"}},
				{"misnamed file beside the head", storage.Request{Op: storage.OpWrite, Path: misnamed, Data: original},
					storage.Request{Op: storage.OpDelete, Path: misnamed},
					[]string{exact, misnamed}},
			} {
				put(c.damage)
				got := audit()
				for _, want := range c.want {
					if !strings.Contains(got, want) {
						t.Errorf("%s: audit says %q, want it to name %q", c.name, got, want)
					}
				}
				put(c.mend)
				if got := audit(); got != "" {
					t.Fatalf("%s: mended, the same audit still fails: %s", c.name, got)
				}
			}
			if now, _ := store.Peek(path, nil); !bytes.Equal(now, original) {
				t.Fatal("the mended head file is not the original")
			}
		})
	}
}

// TestAllocsAuditedCommit pins what auditing one incremental commit allocates
// once the audit's scratch is warm: the four links of a full chain are peeked,
// decoded and replayed from durable bytes into buffers the audit keeps, the
// image compared where it lies, and the cell's dependency graph grown by the
// one checkpoint — under a KiB per commit (about 9.5 KB while the graph was
// rebuilt from every record at every commit, six process images when each
// step made its own copy).
func TestAllocsAuditedCommit(t *testing.T) {
	m, a, _ := auditedRing(t, ckpt.IndepInc, ckpt.Options{Interval: 300_000, MaxCheckpoints: ckpt.BaseEvery})
	var rec ckpt.Record
	var rest []ckpt.Record
	for _, r := range a.committed {
		if r.Rank == 0 && r.Index == ckpt.BaseEvery {
			rec = r
		} else {
			rest = append(rest, r)
		}
	}
	if rec.Prev == 0 {
		t.Fatalf("rank 0 committed no delta at index %d", ckpt.BaseEvery)
	}
	commit := func() {
		a.committed = append(a.committed[:0], rest...)
		a.onCommit([]ckpt.Record{rec})
	}
	commit()
	const rounds = 32
	checks := a.checks
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		commit()
	}
	runtime.ReadMemStats(&after)
	if err := a.err(); err != nil {
		t.Fatal(err)
	}
	if a.checks == checks {
		t.Fatal("the measured commits ran no checks")
	}
	perCommit := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perCommit > 1<<10 {
		t.Fatalf("an audited commit of a %d-link chain allocates %d bytes, want under 1 KiB (a process image is %d)",
			ckpt.BaseEvery, perCommit, m.Cfg.CkptImageBytes)
	}
	t.Logf("audited commit: %d bytes allocated", perCommit)
}
