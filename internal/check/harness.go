// Package check is the crash-recovery correctness oracle: it runs
// application/scheme cells to completion fault-free, re-runs them with a
// crash injected at an arbitrary simulation point followed by recovery from
// the recovery line, and asserts that the final application output and the
// per-node message-delivery logs are byte-identical to the fault-free run.
// Alongside the end-to-end equivalence check, an invariant auditor walks the
// rollback-dependency graph and the stable-storage contents after every
// committed checkpoint and after every recovery.
//
// The oracle observes the run through disarmed-by-default hook points
// (mp.World.OnSend/OnDeliver, ckpt.CommitHook, and the par.IndexedSnapshotter
// probe), so production runs pay a nil check or a type assertion and nothing
// else. Even an armed oracle is invisible in virtual time: the ledger lives
// in a host-side sidecar keyed by (rank, checkpoint index), never inside the
// checkpoint image, so instrumented runs write the same bytes at the same
// instants as plain ones — the golden tests assert the published tables stay
// byte-identical with the full instrumentation riding along.
package check

import (
	"bytes"
	"fmt"

	"repro/internal/mp"
	"repro/internal/par"
)

// msgCopy is one recorded application message: enough to re-inject it on
// recovery (the original piggyback keeps induced checkpointing honest on
// replay) and to compare delivery logs across runs (tag and payload only —
// piggybacks legitimately differ between schemes).
type msgCopy struct {
	Tag  int
	Data []byte
	Meta par.Piggyback
}

func copyMsg(m *mp.Message) msgCopy {
	return msgCopy{Tag: m.Tag, Data: append([]byte(nil), m.Data...), Meta: m.Meta}
}

// sameMsg compares two recorded messages for run-to-run equivalence.
func sameMsg(a, b msgCopy) bool { return a.Tag == b.Tag && bytes.Equal(a.Data, b.Data) }

// Harness is the per-cell message ledger. It records, per ordered channel,
// every application-level message (Tag >= 0; collective-internal traffic is
// the library's business) at two points: sends[src][dst] in send order and
// delivered[rank][src] in consume order. Because the fabric is FIFO per
// channel, each row is a stable sequence whose length doubles as the sent or
// consumed count — which is exactly what a checkpoint needs to persist to
// make the ledger recoverable.
//
// Everything runs inside one single-threaded simulation engine, so the
// harness needs no locking.
type Harness struct {
	n         int
	sends     [][][]msgCopy // [src][dst], in send order
	delivered [][][]msgCopy // [rank][src], in consume order
	cuts      []map[int]cut // [rank][ckpt index]: ledger counters at capture
	zero      []int         // the initial state's cut, shared and never written

	// keepSnaps makes each cut keep a copy of its capture's snapshot bytes.
	// Only the incremental audit reads them (snapAt), so the audit sets it
	// for the incremental schemes alone and the others copy nothing.
	keepSnaps bool
}

// cut is the rank's ledger position at the instant one checkpoint was
// captured: how many messages it had sent to and consumed from every peer,
// plus, for the incremental schemes, the raw snapshot bytes the capture
// produced (the audit's ground truth for delta-chain reconstruction). Cuts
// live in this host-side sidecar, not in the checkpoint image, so the
// instrumentation never changes the bytes the simulated system stores — an
// armed oracle costs zero virtual time. A retried round overwrites its cut,
// which is exactly right: the surviving attempt's files pair with the
// surviving attempt's counters.
type cut struct {
	sent, recv []int
	snap       []byte
}

func newHarness(n int) *Harness {
	h := &Harness{n: n, sends: make([][][]msgCopy, n), delivered: make([][][]msgCopy, n),
		cuts: make([]map[int]cut, n), zero: make([]int, n)}
	for i := 0; i < n; i++ {
		h.sends[i] = make([][]msgCopy, n)
		h.delivered[i] = make([][]msgCopy, n)
		h.cuts[i] = make(map[int]cut)
	}
	return h
}

// Attach arms the observation hooks on a world (a fresh world is created for
// every machine incarnation, so recovery re-attaches).
func (h *Harness) Attach(w *mp.World) {
	w.OnSend = h.onSend
	w.OnDeliver = h.onDeliver
}

func (h *Harness) onSend(src, dst int, m *mp.Message) {
	if m.Tag < 0 {
		return
	}
	h.sends[src][dst] = append(h.sends[src][dst], copyMsg(m))
}

func (h *Harness) onDeliver(rank int, m *mp.Message) {
	if m.Tag < 0 {
		return
	}
	h.delivered[rank][m.Src] = append(h.delivered[rank][m.Src], copyMsg(m))
}

// reset discards the whole ledger: recovery from "no checkpoint ever
// committed" replays the run from its initial state.
func (h *Harness) reset() {
	for i := 0; i < h.n; i++ {
		for j := 0; j < h.n; j++ {
			h.sends[i][j] = nil
			h.delivered[i][j] = nil
		}
		h.cuts[i] = make(map[int]cut)
	}
}

// recordCut stores the rank's current ledger counters, and with keepSnaps a
// copy of the capture's raw snapshot bytes, as checkpoint index's cut.
func (h *Harness) recordCut(rank, index int, snap []byte) {
	sent, recv := h.counts(rank)
	c := cut{sent: sent, recv: recv}
	if h.keepSnaps {
		c.snap = append([]byte(nil), snap...)
	}
	h.cuts[rank][index] = c
}

// cutAt returns the ledger cut of one checkpoint. Index 0 is the initial
// state: all-zero counters, never explicitly recorded.
func (h *Harness) cutAt(rank, index int) (sent, recv []int, ok bool) {
	if index == 0 {
		return h.zero, h.zero, true
	}
	c, ok := h.cuts[rank][index]
	return c.sent, c.recv, ok
}

// snapAt returns the raw snapshot bytes recorded when checkpoint index was
// captured — what the incremental audit compares a replayed delta chain
// against. It finds none unless keepSnaps was set at the capture.
func (h *Harness) snapAt(rank, index int) ([]byte, bool) {
	c, ok := h.cuts[rank][index]
	return c.snap, ok
}

// truncateRank rolls one rank's rows back to the counts its restored
// checkpoint recorded. Rows where the rank is the passive side (messages
// other ranks sent to it or consumed from it) belong to those ranks'
// checkpoints and are not touched.
func (h *Harness) truncateRank(rank int, sent, recv []int) {
	for dst := 0; dst < h.n; dst++ {
		h.sends[rank][dst] = h.sends[rank][dst][:sent[dst]]
	}
	for src := 0; src < h.n; src++ {
		h.delivered[rank][src] = h.delivered[rank][src][:recv[src]]
	}
}

// counts returns the rank's current row lengths (what a snapshot persists).
func (h *Harness) counts(rank int) (sent, recv []int) {
	sent = make([]int, h.n)
	recv = make([]int, h.n)
	for dst := 0; dst < h.n; dst++ {
		sent[dst] = len(h.sends[rank][dst])
	}
	for src := 0; src < h.n; src++ {
		recv[src] = len(h.delivered[rank][src])
	}
	return sent, recv
}

// wrapped is the oracle's program wrapper: it implements
// par.IndexedSnapshotter so that every checkpoint a scheme takes also records
// the rank's ledger counters in the harness sidecar, and every rollback
// rewinds the ledger in lockstep with the application state. The checkpoint
// bytes pass through untouched in both directions, and Run simply delegates,
// so the wrapped program is indistinguishable from the inner one in virtual
// time.
type wrapped struct {
	inner mp.Program
	h     *Harness
	rank  int
}

var _ par.IndexedSnapshotter = (*wrapped)(nil)
var _ par.Paged = (*wrapped)(nil)

func (w *wrapped) Run(e *mp.Env) { w.inner.Run(e) }

// StatePageSize forwards the inner program's page geometry so the incremental
// schemes diff instrumented runs at the same granularity as plain ones.
func (w *wrapped) StatePageSize() int { return par.StatePageSizeOf(w.inner) }

// Snapshot is the plain capture path (equivalence checks, peers inspecting
// final state); it records nothing.
func (w *wrapped) Snapshot() []byte { return w.inner.Snapshot() }

// Restore without an index cannot rewind the ledger; every restore path in
// the simulator goes through par.RestoreAt, which dispatches to RestoreAt.
func (w *wrapped) Restore(b []byte) {
	panic(fmt.Sprintf("check: rank %d restored without a checkpoint index; the ledger cannot rewind", w.rank))
}

func (w *wrapped) SnapshotAt(index int) []byte {
	b := w.inner.Snapshot()
	w.h.recordCut(w.rank, index, b)
	return b
}

func (w *wrapped) RestoreAt(index int, b []byte) {
	sent, recv, ok := w.h.cutAt(w.rank, index)
	if !ok {
		panic(fmt.Sprintf("check: rank %d restored to checkpoint %d but no ledger cut was recorded at its capture", w.rank, index))
	}
	w.h.truncateRank(w.rank, sent, recv)
	w.inner.Restore(b)
}
