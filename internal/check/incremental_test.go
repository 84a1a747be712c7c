package check

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/mp"
	"repro/internal/par"
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
	_, err := ckpt.ReconstructState(func(idx int) ([]byte, int, error) {
		switch idx {
		case 9:
			return []byte{1}, 7, nil
		default:
			return nil, 0, fmt.Errorf("not durable")
		}
	}, 9)
	if err == nil {
		t.Fatal("broken chain resolved")
	}
	if !strings.Contains(err.Error(), "checkpoint 9") || !strings.Contains(err.Error(), "link 7") {
		t.Fatalf("error does not name the broken delta round: %v", err)
	}

	// Durable probe: run a real incremental history, then audit a checkpoint
	// index that never committed. The violation must name that index as the
	// failed link.
	cfg := par.DefaultConfig()
	wl := bench.RingWorkload(256, 40, 2e5)
	m := par.NewMachine(cfg)
	defer m.Shutdown()
	n := m.NumNodes()
	h := newHarness(n)
	a := newAudit(m, h, ckpt.IndepInc)
	sch := ckpt.New(ckpt.IndepInc, ckpt.Options{Interval: 300_000})
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
	missing := 0
	for _, r := range sch.Records() {
		if r.Index > missing {
			missing = r.Index
		}
	}
	missing++
	a.checkChain(0, missing)
	verr := a.err()
	if verr == nil {
		t.Fatalf("auditing never-written checkpoint %d produced no violation", missing)
	}
	if !strings.Contains(verr.Error(), "inc.chain-resolves") ||
		!strings.Contains(verr.Error(), fmt.Sprintf("link %d", missing)) {
		t.Fatalf("violation does not name delta round %d: %v", missing, verr)
	}
}
