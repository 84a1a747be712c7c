package check

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/par"
	"repro/internal/rdg"
)

// Violation is one failed consistency invariant. Violations are collected
// rather than thrown: the run continues so a single cell can surface every
// broken invariant at once, and the cell's error lists them.
type Violation struct {
	Invariant string // short dotted name, e.g. "coord.chan-complete"
	Detail    string
}

func (v *Violation) Error() string { return v.Invariant + ": " + v.Detail }

// maxViolations bounds how many violations one cell accumulates; past the
// cap only the counter advances (a truly broken protocol would otherwise
// drown the report).
const maxViolations = 16

// audit is the per-cell invariant checker. Its onCommit method is installed
// as the scheme's CommitHook, so it runs synchronously in the committing
// daemon's context after every durably committed checkpoint (round for
// coordinated schemes, single checkpoint for independent/CIC); storage is
// inspected through Server.Peek, which costs no virtual time, so an armed
// audit never perturbs the schedule it is checking.
type audit struct {
	m *par.Machine
	h *Harness
	v ckpt.Variant
	n int

	// Scratch, reused from commit to commit: buf holds the file peekRank last
	// copied out (what it returned is dead at the next peekRank), replay the
	// links and image of the checkpoint checkFile last read.
	buf    []byte
	replay ckpt.Replayer

	committed []ckpt.Record // records currently represented in durable storage
	g         *rdg.Graph    // uncoordinated: committed's rollback-dependency graph, grown per commit
	lastLine  []int         // uncoordinated: last recovery line, for monotonicity
	recovered bool          // a crash-recovery happened in this cell
	checks    int64         // individual invariant assertions evaluated
	dropped   int           // violations past maxViolations
	out       []*Violation
}

func newAudit(m *par.Machine, h *Harness, v ckpt.Variant) *audit {
	n := m.NumNodes()
	h.keepSnaps = v.Incremental()
	return &audit{m: m, h: h, v: v, n: n, g: rdg.New(n), lastLine: make([]int, n)}
}

func (a *audit) violatef(inv, format string, args ...any) {
	a.m.Obs.Add(0, "check.violations", 1)
	if len(a.out) >= maxViolations {
		a.dropped++
		return
	}
	a.out = append(a.out, &Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// assert evaluates one invariant and records it either way; it returns ok so
// callers can skip dependent checks after a failure.
func (a *audit) assert(ok bool, inv, format string, args ...any) bool {
	a.checks++
	if !ok {
		a.violatef(inv, format, args...)
	}
	return ok
}

// err folds the collected violations into a single error, nil when the cell
// is clean; each violation stays reachable through errors.As.
func (a *audit) err() error {
	if len(a.out) == 0 {
		return nil
	}
	more := ""
	if a.dropped > 0 {
		more = fmt.Sprintf(" (+%d more)", a.dropped)
	}
	args := []any{len(a.out) + a.dropped, more}
	for _, v := range a.out {
		args = append(args, v)
	}
	return fmt.Errorf("%d invariant violation(s)%s: "+strings.Repeat("; %w", len(a.out))[2:], args...)
}

// peekRank inspects rank's storage shard for path — every rank's files live
// on exactly one server, the one its placement assigns, so that is the only
// server a correct scheme can have written to (and the only one recovery
// will read from). Peek costs no virtual time; the bytes are borrowed until
// the next peekRank.
func (a *audit) peekRank(rank int, path string) ([]byte, bool) {
	var ok bool
	a.buf, ok = a.m.StoreFor(rank).Peek(path, a.buf)
	return a.buf, ok
}

// onCommit is the CommitHook entry point for every scheme family.
func (a *audit) onCommit(recs []ckpt.Record) {
	a.m.Obs.Add(0, "check.commits", 1)
	if a.v.Coordinated() {
		a.coordCommit(recs)
		return
	}
	for _, rec := range recs {
		a.indepCommit(rec)
	}
}

// coordCommit audits one committed 2PC round: the commit record is durable
// and names this round, every rank's state (and channel log, when non-empty)
// is durable with the recorded size, and the channel logs capture exactly
// the messages in transit across the cut — no orphan (a consumed message
// whose send the cut excludes) and no lost in-transit message.
func (a *audit) coordCommit(recs []ckpt.Record) {
	if !a.assert(len(recs) == a.n, "coord.round-shape", "round committed %d records, want %d", len(recs), a.n) {
		return
	}
	round := recs[0].Index
	byRank := make([]*ckpt.Record, a.n)
	for i := range recs {
		r := &recs[i]
		if !a.assert(r.Index == round, "coord.round-shape", "mixed rounds %d and %d in one commit", round, r.Index) {
			return
		}
		if !a.assert(r.Rank >= 0 && r.Rank < a.n && byRank[r.Rank] == nil,
			"coord.round-shape", "round %d: duplicate or out-of-range rank %d", round, r.Rank) {
			return
		}
		byRank[r.Rank] = r
	}

	meta, ok := a.peekRank(0, ckpt.CoordMetaPath)
	if a.assert(ok, "coord.meta-durable", "round %d committed but no durable commit record", round) {
		got, err := ckpt.ParseMetaRecord(meta)
		a.assert(err == nil && got == round, "coord.meta-durable",
			"commit record reads round %d (err %v), want %d", got, err, round)
	}

	// Check every rank's durable state and pick up the ledger cut its capture
	// recorded in the sidecar; the cut defines the global state this round
	// represents.
	sentVec := make([][]int, a.n)
	recvVec := make([][]int, a.n)
	for rank, rec := range byRank {
		if durable, _ := a.checkFile("coord.state-durable", *rec, true); !durable {
			return
		}
		sent, recv, ok := a.h.cutAt(rank, round)
		if !a.assert(ok, "coord.state-durable", "round %d rank %d: no ledger cut recorded at capture", round, rank) {
			return
		}
		sentVec[rank], recvVec[rank] = sent, recv
	}

	// Decode every rank's channel log, split per sender (application tags
	// only — collective-internal messages are protocol traffic).
	logged := make([][][]msgCopy, a.n)
	for rank, rec := range byRank {
		logged[rank] = make([][]msgCopy, a.n)
		path := a.v.ChanPath(rank, round)
		size, ok := a.m.StoreFor(rank).Size(path)
		if rec.ChanBytes == 0 {
			a.assert(!ok, "coord.chan-durable", "round %d rank %d: empty channel but a durable log of %d bytes", round, rank, size)
			continue
		}
		if !a.assert(ok && size == rec.ChanBytes, "coord.chan-durable",
			"round %d rank %d: channel log %d bytes durable (present %v), record says %d", round, rank, size, ok, rec.ChanBytes) {
			continue
		}
		data, _ := a.peekRank(rank, path)
		msgs, err := ckpt.DecodeChanLog(data)
		if !a.assert(err == nil, "coord.chan-durable", "round %d rank %d: undecodable channel log: %v", round, rank, err) {
			continue
		}
		for _, m := range msgs {
			if m.Tag < 0 {
				continue
			}
			logged[rank][m.Src] = append(logged[rank][m.Src], copyMsg(m))
		}
	}

	// Channel rules across the cut, per ordered channel src -> dst: the
	// receiver may not have consumed past what the sender sent (no orphan),
	// and the log must hold exactly the window in between (no loss, nothing
	// invented), byte-for-byte against the send ledger.
	for src := 0; src < a.n; src++ {
		for dst := 0; dst < a.n; dst++ {
			lo, hi := recvVec[dst][src], sentVec[src][dst]
			if !a.assert(lo <= hi, "coord.no-orphan",
				"round %d: %d->%d consumed %d of %d sent; the cut orphans %d message(s)", round, src, dst, lo, hi, lo-hi) {
				continue
			}
			if !a.assert(hi <= len(a.h.sends[src][dst]), "coord.ledger",
				"round %d: %d->%d snapshot claims %d sends, ledger has %d", round, src, dst, hi, len(a.h.sends[src][dst])) {
				continue
			}
			want := a.h.sends[src][dst][lo:hi]
			got := logged[dst][src]
			if !a.assert(len(got) == len(want), "coord.chan-complete",
				"round %d: %d->%d logged %d in-transit message(s), want %d", round, src, dst, len(got), len(want)) {
				continue
			}
			for k := range want {
				if !a.assert(sameMsg(got[k], want[k]), "coord.chan-complete",
					"round %d: %d->%d in-transit message %d differs from the send ledger", round, src, dst, lo+k) {
					break
				}
			}
		}
	}
	a.committed = append(a.committed, recs...)
}

// indepCommit audits one committed independent/CIC checkpoint: the file is
// durable with exactly the recorded index, dependency edges and state size,
// and the maximal consistent recovery line over everything committed so far
// is orphan-free and has not moved backwards on any rank (new checkpoints
// only constrain new intervals). The line comes from the cell's one graph,
// grown by this checkpoint, which scans only the edges the last line left
// live: the audit of a commit costs the same early and late in a run.
func (a *audit) indepCommit(rec ckpt.Record) {
	if _, decoded := a.checkFile("indep.durable", rec, true); decoded {
		_, _, cutOK := a.h.cutAt(rec.Rank, rec.Index)
		a.assert(cutOK, "indep.durable",
			"rank %d ckpt %d: no ledger cut recorded at capture", rec.Rank, rec.Index)
	}

	a.committed = append(a.committed, rec)
	a.g.Add(rec)
	line := a.g.RecoveryLine()
	if orph := a.g.OrphanEdges(line); len(orph) > 0 {
		a.violatef("indep.line-consistent", "after rank %d ckpt %d the line %v keeps orphan edges %v",
			rec.Rank, rec.Index, line, orph)
	}
	a.checks++
	for r := 0; r < a.n; r++ {
		if !a.assert(line[r] >= a.lastLine[r], "indep.line-monotonic",
			"after rank %d ckpt %d the line regressed on rank %d: %d -> %d",
			rec.Rank, rec.Index, r, a.lastLine[r], line[r]) {
			break
		}
	}
	a.lastLine = line
}

// checkFile reads rec's checkpoint back through the one reader
// (ckpt.Replayer, from Peek: no virtual time) and holds it to the record
// under invariant inv: the file must be durable and decode, and its head carry
// the record's index — so a slot that holds another round fails — chain
// pointer (incremental capture only), payload size and dependency edges
// (local-timer families only). At a commit each field is its own assertion,
// and an incremental checkpoint's chain must also resolve back to a committed
// base and replay to exactly the image captured at that index — a violation
// names the chain link that broke, the delta round a failure report points at.
// The end-of-run audit (atCommit false) only confirms that a slot still holds
// its committed file: it reads the head alone, and the fields are one
// assertion. checkFile reports whether the file is durable and whether its
// head decoded.
func (a *audit) checkFile(inv string, rec ckpt.Record, atCommit bool) (durable, decoded bool) {
	store := a.m.StoreFor(rec.Rank)
	path := a.v.StatePath(rec.Rank, rec.Index)
	_, ok := store.Size(path)
	if !a.assert(ok, inv, "rank %d ckpt %d committed but %s not durable", rec.Rank, rec.Index, path) {
		return false, false
	}
	fetch := func(path string, buf []byte) ([]byte, error) {
		data, ok := store.Peek(path, buf)
		if !ok {
			return nil, fmt.Errorf("file %s not durable", path)
		}
		return data, nil
	}
	f, err := a.replay.ReadHead(a.v, rec.Rank, rec.Index, fetch)
	if !a.assert(err == nil, inv, "rank %d ckpt %d: undecodable: %v", rec.Rank, rec.Index, err) {
		return true, false
	}
	prevOK := !a.v.Incremental() || f.Prev == rec.Prev
	depsOK := a.v.Coordinated() || sameDeps(f.Deps, rec.Deps)
	if !atCommit {
		a.assert(f.Index == rec.Index && prevOK && len(f.State) == rec.StateBytes && depsOK, inv,
			"%s holds index %d prev %d payload %d bytes, record says %d/%d/%d",
			path, f.Index, f.Prev, len(f.State), rec.Index, rec.Prev, rec.StateBytes)
		return true, true
	}
	a.assert(f.Index == rec.Index, inv,
		"rank %d: %s holds index %d, record says %d", rec.Rank, path, f.Index, rec.Index)
	if a.v.Incremental() {
		a.assert(prevOK, "inc.chain-pointer", "rank %d ckpt %d: durable chain pointer %d, record says %d",
			rec.Rank, rec.Index, f.Prev, rec.Prev)
	}
	a.assert(len(f.State) == rec.StateBytes, inv, "rank %d ckpt %d: payload is %d bytes, record says %d",
		rec.Rank, rec.Index, len(f.State), rec.StateBytes)
	if !a.v.Coordinated() {
		a.assert(depsOK, inv, "rank %d ckpt %d: durable dependency edges differ from the record", rec.Rank, rec.Index)
	}
	if !a.v.Incremental() {
		return true, true
	}
	img, err := a.replay.ReconstructCkpt(a.v, rec.Rank, rec.Index, fetch)
	if !a.assert(err == nil, "inc.chain-resolves", "rank %d: %v", rec.Rank, err) {
		return true, true
	}
	snap, ok := a.h.snapAt(rec.Rank, rec.Index)
	if !a.assert(ok, "inc.chain-equals-snapshot",
		"rank %d ckpt %d: no sidecar snapshot recorded at capture", rec.Rank, rec.Index) {
		return true, true
	}
	// The image must be the snapshot followed by the process image's zeros;
	// compared in place, not against a second materialised image.
	want := len(snap) + max(a.m.Cfg.CkptImageBytes, 0)
	a.assert(len(img) == want && bytes.Equal(img[:len(snap)], snap) && allZero(img[len(snap):]),
		"inc.chain-equals-snapshot",
		"rank %d ckpt %d: replayed chain (%d bytes) differs from the captured snapshot (%d bytes)",
		rec.Rank, rec.Index, len(img), want)
	return true, true
}

// allZero reports whether b holds only zero bytes: its first is, and each
// other equals the one before it (one vectorised compare of b with itself).
func allZero(b []byte) bool {
	return len(b) == 0 || b[0] == 0 && bytes.Equal(b[1:], b[:len(b)-1])
}

// onRecovery rebases the audit on the recovery line the driver restored:
// checkpoints above the line were deleted from stable storage and must no
// longer be treated as committed.
func (a *audit) onRecovery(line []int) {
	a.recovered = true
	kept := a.committed[:0]
	for _, r := range a.committed {
		if r.Index <= line[r.Rank] {
			kept = append(kept, r)
		}
	}
	a.committed = kept
	a.g = rdg.FromRecords(a.n, kept)
	a.lastLine = append([]int(nil), line...)
}

// onCoordRecovery marks that a coordinated recovery ran. Committed rounds
// need no rebasing — the commit record is monotone, so recovery always
// restores the newest committed round.
func (a *audit) onCoordRecovery() { a.recovered = true }

// finish runs the end-of-run durable-storage audit once the engine has
// drained (background writes included): stable storage holds exactly the
// committed checkpoints — no partial residue, nothing missing — and for the
// CIC family the termination checkpoints have sealed the zero-rollback
// guarantee: the maximal consistent line is every rank's latest checkpoint.
func (a *audit) finish() {
	if a.v.Coordinated() {
		a.finishCoordinated()
	} else {
		a.finishUncoordinated()
	}
}

func (a *audit) finishCoordinated() {
	maxRound := 0
	for _, r := range a.committed {
		if r.Index > maxRound {
			maxRound = r.Index
		}
	}
	meta, ok := a.peekRank(0, ckpt.CoordMetaPath)
	if !ok {
		a.assert(maxRound == 0, "coord.exact", "round %d committed but no durable commit record", maxRound)
		return
	}
	round, err := ckpt.ParseMetaRecord(meta)
	if !a.assert(err == nil, "coord.exact", "undecodable commit record: %v", err) {
		return
	}
	// The crash can pre-empt a committing daemon between the commit record
	// becoming durable and the bookkeeping callback: round maxRound+1 is
	// then committed on disk with no record on this side. Legal only across
	// a recovery; the durable files must still be complete.
	phantom := a.recovered && round == maxRound+1
	if !a.assert(round == maxRound || phantom, "coord.exact",
		"commit record reads round %d, last committed round is %d", round, maxRound) {
		return
	}
	if round == 0 {
		return
	}

	// The committed round's slot must hold exactly that round's files. (The
	// other slots legally carry other rounds — for the full-image variants the
	// previous round or a tentative next round; for the incremental variant
	// the committed round's chain members and possibly a tentative round —
	// recovery never trusts them blindly because the commit record is
	// authoritative and the chain walk validates every link's index.)
	slotDir := a.v.SlotDir(round)
	want := map[string]int{ckpt.CoordMetaPath: -1}
	wantShard := map[string]int{ckpt.CoordMetaPath: a.m.ShardOf(0)}
	optional := map[string]struct{}{} // phantom round: its channel logs
	if phantom {
		// No records to audit sizes against: require a complete state set
		// whose captures left cuts in the sidecar, and accept whatever channel
		// logs the round wrote.
		for rank := 0; rank < a.n; rank++ {
			sp, cp := a.v.StatePath(rank, round), a.v.ChanPath(rank, round)
			want[sp], want[cp] = -1, -1
			optional[cp] = struct{}{}
			_, ok := a.m.StoreFor(rank).Size(sp)
			if a.assert(ok, "coord.exact", "commit record names round %d but rank %d's state is missing", round, rank) {
				_, _, cutOK := a.h.cutAt(rank, round)
				a.assert(cutOK, "coord.exact", "round %d rank %d: no ledger cut recorded at capture", round, rank)
			}
			wantShard[sp], wantShard[cp] = a.m.ShardOf(rank), a.m.ShardOf(rank)
		}
	} else {
		for _, r := range a.committed {
			if r.Index != round {
				continue
			}
			// A file's size is not the recorded payload size, so audit
			// the file by reading it instead.
			sp := a.v.StatePath(r.Rank, round)
			want[sp], wantShard[sp] = -1, a.m.ShardOf(r.Rank)
			a.checkFile("coord.exact", r, false)
			if r.ChanBytes > 0 {
				want[a.v.ChanPath(r.Rank, round)] = r.ChanBytes
				wantShard[a.v.ChanPath(r.Rank, round)] = a.m.ShardOf(r.Rank)
			}
		}
	}
	for si, st := range a.m.Stores {
		for _, path := range st.DurablePaths() {
			if !strings.HasPrefix(path, slotDir) && path != ckpt.CoordMetaPath {
				continue
			}
			size, listed := want[path]
			if !a.assert(listed, "coord.exact", "stray durable file %s in the committed round's slot", path) {
				continue
			}
			if a.m.NumStores() > 1 {
				a.assert(si == wantShard[path], "shard.placement",
					"%s durable on server %d, its rank's placement is server %d", path, si, wantShard[path])
			}
			if size >= 0 {
				got, _ := st.Size(path)
				a.assert(got == size, "coord.exact", "%s is %d bytes, committed record says %d", path, got, size)
			}
			delete(want, path)
		}
	}
	for path := range want {
		if _, ok := optional[path]; ok {
			continue
		}
		a.violatef("coord.exact", "committed file %s missing from durable storage", path)
		a.checks++
	}
}

func (a *audit) finishUncoordinated() {
	want := make(map[string]struct{}, len(a.committed))
	for _, r := range a.committed {
		want[a.v.StatePath(r.Rank, r.Index)] = struct{}{}
	}
	root := a.v.StorageRoot()
	for si, st := range a.m.Stores {
		for _, path := range st.DurablePaths() {
			if !strings.HasPrefix(path, root) {
				continue
			}
			if !a.assert(hasKey(want, path), "indep.exact", "durable file %s has no committed record", path) {
				continue
			}
			if a.m.NumStores() > 1 {
				if rank, _, pok := a.v.ParsePath(path); pok {
					a.assert(si == a.m.ShardOf(rank), "shard.placement",
						"%s durable on server %d, rank %d's shard is server %d", path, si, rank, a.m.ShardOf(rank))
				}
			}
			delete(want, path)
		}
	}
	for path := range want {
		a.violatef("indep.exact", "committed checkpoint %s missing from durable storage", path)
		a.checks++
	}
	if a.v.CommunicationInduced() && len(a.committed) > 0 {
		a.assert(a.g.ZeroRollback(), "cic.zero-rollback",
			"latest checkpoints %v, maximal consistent line %v", a.g.Latest(), a.g.RecoveryLine())
	}
}

func hasKey(m map[string]struct{}, k string) bool { _, ok := m[k]; return ok }

func sameDeps(a, b []ckpt.Dep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
