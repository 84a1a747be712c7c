package ckpt

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/sim"
)

// ringProg is a fully recovery-consistent test program: N ranks exchange
// values around a ring for Iters iterations. Its state encodes the exact
// resume position (Phase), so a snapshot at any library safe point restores
// correctly.
type ringProg struct {
	Rank, N, Iters int
	PerIterOps     float64
	Payload        int // extra state bytes to fatten checkpoints

	Iter  int
	Phase int // 0: before compute+send; 1: sent, awaiting recv
	Acc   int64
	pad   []byte
}

func newRingProg(rank, n, iters, payload int, ops float64) *ringProg {
	return &ringProg{Rank: rank, N: n, Iters: iters, Payload: payload, PerIterOps: ops,
		pad: make([]byte, payload)}
}

func (r *ringProg) Run(e *mp.Env) {
	right := (r.Rank + 1) % r.N
	left := (r.Rank + r.N - 1) % r.N
	for r.Iter < r.Iters {
		if r.Phase == 0 {
			e.Compute(r.PerIterOps)
			val := int64(r.Rank+1) * int64(r.Iter+1)
			w := codec.NewWriter()
			w.I64(val)
			e.Send(right, 1, w.Bytes())
			r.Phase = 1
		}
		m := e.Recv(left, 1)
		r.Acc += codec.NewReader(m.Data).I64()
		r.Phase = 0
		r.Iter++
	}
}

func (r *ringProg) Snapshot() []byte {
	w := codec.NewWriter()
	w.Int(r.Iter)
	w.Int(r.Phase)
	w.I64(r.Acc)
	w.Bytes8(r.pad)
	return w.Bytes()
}

func (r *ringProg) Restore(data []byte) {
	rd := codec.NewReader(data)
	r.Iter = rd.Int()
	r.Phase = rd.Int()
	r.Acc = rd.I64()
	r.pad = rd.Bytes8()
	if rd.Err() != nil {
		panic(rd.Err())
	}
}

// wantRingAcc is the closed-form final accumulator of rank's left neighbour
// stream: sum over iters of (left+1)*(i+1).
func wantRingAcc(rank, n, iters int) int64 {
	left := (rank + n - 1) % n
	var acc int64
	for i := 0; i < iters; i++ {
		acc += int64(left+1) * int64(i+1)
	}
	return acc
}

// runRing executes the ring workload under a scheme (nil = no checkpointing)
// and returns the machine, the world and the scheme for inspection.
func runRing(t *testing.T, v Variant, opt Options, iters, payload int) (*par.Machine, *mp.World, Scheme) {
	t.Helper()
	m := par.NewMachine(par.DefaultConfig())
	var sch Scheme
	if opt.Interval > 0 {
		sch = New(v, opt)
		sch.Attach(m)
	}
	w := mp.NewWorld(m)
	n := m.NumNodes()
	progs := make([]*ringProg, n)
	for rank := 0; rank < n; rank++ {
		progs[rank] = newRingProg(rank, n, iters, payload, 2e5)
		w.Launch(rank, progs[rank])
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, pr := range progs {
		if pr.Acc != wantRingAcc(rank, n, iters) {
			t.Fatalf("%v: rank %d acc = %d, want %d", v, rank, pr.Acc, wantRingAcc(rank, n, iters))
		}
	}
	return m, w, sch
}

func TestBaselineRingWithoutCheckpointing(t *testing.T) {
	m, _, _ := runRing(t, CoordNB, Options{}, 50, 0)
	if m.AppsFinished == 0 {
		t.Fatal("no finish time recorded")
	}
}

func TestCoordinatedRoundCommits(t *testing.T) {
	for _, v := range []Variant{CoordB, CoordNB, CoordNBM, CoordNBMS} {
		t.Run(v.String(), func(t *testing.T) {
			m, _, sch := runRing(t, v, Options{Interval: 2 * sim.Second}, 500, 100_000)
			st := sch.Stats()
			if st.Rounds < 2 {
				t.Fatalf("rounds = %d, want >= 2", st.Rounds)
			}
			recs := sch.Records()
			if len(recs) != st.Rounds*m.NumNodes() {
				t.Fatalf("records = %d, want %d", len(recs), st.Rounds*m.NumNodes())
			}
			for _, r := range recs {
				if r.StateBytes < 100_000 {
					t.Fatalf("record %+v has implausible state size", r)
				}
			}
			// Durable layout: current round's files plus the round record;
			// older rounds garbage collected (the last round's GC runs at the
			// commit of the *next* round, so at most 2 rounds of files).
			if nf := m.Store.NumFiles(); nf > 2*m.NumNodes()*2+1 {
				t.Fatalf("stable storage holds %d files; GC not working", nf)
			}
			if st.ProtoMsgs == 0 {
				t.Fatal("no protocol messages counted")
			}
		})
	}
}

func TestBlockingOrderAcrossVariants(t *testing.T) {
	blocked := map[Variant]sim.Duration{}
	for _, v := range []Variant{CoordB, CoordNB, CoordNBM, CoordNBMS} {
		_, _, sch := runRing(t, v, Options{Interval: 3 * sim.Second, MaxCheckpoints: 2}, 600, 200_000)
		st := sch.Stats()
		if st.Rounds != 2 {
			t.Fatalf("%v: rounds = %d", v, st.Rounds)
		}
		blocked[v] = st.AppBlocked
	}
	if !(blocked[CoordB] > blocked[CoordNB]) {
		t.Errorf("B blocked %v should exceed NB %v", blocked[CoordB], blocked[CoordNB])
	}
	if !(blocked[CoordNB] > blocked[CoordNBM]) {
		t.Errorf("NB blocked %v should exceed NBM %v", blocked[CoordNB], blocked[CoordNBM])
	}
	// NBM and NBMS block the app only for the memory copy: equal by design.
	if d := blocked[CoordNBM] - blocked[CoordNBMS]; d < -sim.Millisecond || d > sim.Millisecond {
		t.Errorf("NBM %v vs NBMS %v app block should be ~equal", blocked[CoordNBM], blocked[CoordNBMS])
	}
}

func TestNBMSStaggersStateWrites(t *testing.T) {
	spread := func(v Variant) sim.Duration {
		_, _, sch := runRing(t, v, Options{Interval: 5 * sim.Second, MaxCheckpoints: 1}, 400, 300_000)
		recs := sch.Records()
		if len(recs) != 8 {
			t.Fatalf("%v records = %d", v, len(recs))
		}
		minAt, maxAt := recs[0].At, recs[0].At
		for _, r := range recs {
			if r.At < minAt {
				minAt = r.At
			}
			if r.At > maxAt {
				maxAt = r.At
			}
		}
		return maxAt.Sub(minAt)
	}
	nbm, nbms := spread(CoordNBM), spread(CoordNBMS)
	// With staggering each node's write finishes one service time after the
	// previous; without it they complete within the storage queue's span of
	// a burst. Both are spread by the shared disk, but staggering must not
	// be smaller, and the staggered span must cover ~8 serialized writes.
	if nbms < 7*sim.BytesAt(300_000, 1.2e6) {
		t.Errorf("NBMS write completion spread %v too small for a token ring", nbms)
	}
	_ = nbm
}

func TestChannelStateCaptured(t *testing.T) {
	// Rank 0 floods rank 1, which is stuck computing, so messages are in
	// transit/unconsumed when the round hits: they must land in channel logs.
	m := par.NewMachine(par.DefaultConfig())
	sch := New(CoordNB, Options{Interval: sim.Second, MaxCheckpoints: 1})
	sch.Attach(m)
	w := mp.NewWorld(m)
	w.Launch(0, &flooderProg{n: m.NumNodes()})
	w.Launch(1, &sinkProg{})
	for r := 2; r < m.NumNodes(); r++ {
		w.Launch(r, &idleProg{})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st := sch.Stats(); st.ChanBytes == 0 {
		t.Fatal("no channel state captured despite in-transit messages")
	}
	if st := sch.Stats(); st.Rounds != 1 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
}

// flooderProg sends a burst to rank 1 then idles through the checkpoint.
type flooderProg struct {
	n    int
	Sent int
}

func (f *flooderProg) Run(e *mp.Env) {
	for i := 0; i < 50; i++ {
		e.Send(1, 7, make([]byte, 2000))
		f.Sent++
	}
	e.Compute(5e7) // stay alive past the checkpoint round
}
func (f *flooderProg) Snapshot() []byte { w := codec.NewWriter(); w.Int(f.Sent); return w.Bytes() }
func (f *flooderProg) Restore(b []byte) { f.Sent = codec.NewReader(b).Int() }

// sinkProg consumes the burst very slowly.
type sinkProg struct{ Got int }

func (s *sinkProg) Run(e *mp.Env) {
	e.Compute(4e7) // busy while messages pile up
	for s.Got < 50 {
		e.Recv(0, 7)
		s.Got++
	}
}
func (s *sinkProg) Snapshot() []byte { w := codec.NewWriter(); w.Int(s.Got); return w.Bytes() }
func (s *sinkProg) Restore(b []byte) { s.Got = codec.NewReader(b).Int() }

type idleProg struct{}

func (idleProg) Run(e *mp.Env)    { e.Compute(5e7) }
func (idleProg) Snapshot() []byte { return []byte{0} }
func (idleProg) Restore([]byte)   {}

func TestIndependentCheckpointsAndDrift(t *testing.T) {
	for _, v := range []Variant{Indep, IndepM} {
		t.Run(v.String(), func(t *testing.T) {
			_, _, sch := runRing(t, v, Options{Interval: 2 * sim.Second}, 300, 150_000)
			st := sch.Stats()
			if st.Checkpoints < 8 {
				t.Fatalf("checkpoints = %d", st.Checkpoints)
			}
			if st.ProtoMsgs != 0 {
				t.Fatalf("independent checkpointing sent %d protocol messages", st.ProtoMsgs)
			}
			recs := sch.Records()
			// Dependency edges must have been captured: the ring communicates
			// constantly, so second-generation checkpoints carry deps.
			deps := 0
			for _, r := range recs {
				if r.Index >= 2 {
					deps += len(r.Deps)
				}
			}
			if deps == 0 {
				t.Fatal("no dependencies recorded")
			}
		})
	}
}

func TestIndependentTimersDriftApart(t *testing.T) {
	_, _, sch := runRing(t, Indep, Options{Interval: 2 * sim.Second}, 500, 250_000)
	recs := sch.Records()
	// Group completion times by index; generation 1 completions are
	// serialized by the disk queue, so the span of generation 2 *starts*
	// (≈ completions of gen 1) is already wide relative to a write time.
	byIndex := map[int][]sim.Time{}
	for _, r := range recs {
		byIndex[r.Index] = append(byIndex[r.Index], r.At)
	}
	gen2 := byIndex[2]
	if len(gen2) < 8 {
		t.Skipf("only %d second-generation checkpoints", len(gen2))
	}
	minAt, maxAt := gen2[0], gen2[0]
	for _, at := range gen2 {
		if at < minAt {
			minAt = at
		}
		if at > maxAt {
			maxAt = at
		}
	}
	if spread := maxAt.Sub(minAt); spread < sim.BytesAt(250_000, 1.2e6) {
		t.Fatalf("generation-2 spread %v shows no drift", spread)
	}
}

func TestRecoveryEndToEnd(t *testing.T) {
	const iters, payload = 400, 120_000
	for _, v := range []Variant{CoordNB, CoordNBMS} {
		t.Run(v.String(), func(t *testing.T) {
			m := par.NewMachine(par.DefaultConfig())
			sch := New(v, Options{Interval: 2 * sim.Second})
			sch.Attach(m)
			w := mp.NewWorld(m)
			n := m.NumNodes()
			factory := func(rank int) mp.Program { return newRingProg(rank, n, iters, payload, 2e5) }
			for rank := 0; rank < n; rank++ {
				w.Launch(rank, factory(rank))
			}
			var rep *RecoveryReport
			var after []int                      // rounds the new incarnation commits
			crashAt := sim.Time(12 * sim.Second) // after at least one committed round
			m.Eng.At(crashAt, func() {
				m.CrashAll()
				m.Eng.After(500*sim.Millisecond, func() { // repair delay
					_, rep = Recover(m, v, Options{Interval: 2 * sim.Second, CommitHook: func(recs []Record) {
						after = append(after, recs[0].Index)
					}}, factory)
				})
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if rep == nil || !rep.Done.Opened() {
				t.Fatal("recovery did not complete")
			}
			if rep.Round < 1 {
				t.Fatalf("recovered round = %d, want >= 1", rep.Round)
			}
			for rank := 0; rank < n; rank++ {
				pr := m.Nodes[rank].Snap.(*ringProg)
				if pr.Iter != iters {
					t.Fatalf("rank %d stopped at iter %d", rank, pr.Iter)
				}
				if pr.Acc != wantRingAcc(rank, n, iters) {
					t.Fatalf("rank %d acc = %d, want %d (divergence after recovery)",
						rank, pr.Acc, wantRingAcc(rank, n, iters))
				}
			}
			// The new incarnation's scheme keeps checkpointing with continued
			// round numbers.
			if len(after) == 0 {
				t.Fatal("the new incarnation committed no round")
			}
			for i, round := range after {
				if round != rep.Round+1+i {
					t.Fatalf("post-recovery rounds %v do not continue after %d", after, rep.Round)
				}
			}
		})
	}
}

func TestRecoveryBeforeFirstCommitRestartsFromScratch(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	sch := New(CoordNB, Options{Interval: 60 * sim.Second}) // never fires
	sch.Attach(m)
	w := mp.NewWorld(m)
	n := m.NumNodes()
	const iters = 100
	factory := func(rank int) mp.Program { return newRingProg(rank, n, iters, 1000, 2e5) }
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, factory(rank))
	}
	var rep *RecoveryReport
	m.Eng.At(sim.Time(2*sim.Second), func() {
		m.CrashAll()
		m.Eng.After(100*sim.Millisecond, func() {
			_, rep = Recover(m, CoordNB, Options{Interval: 60 * sim.Second}, factory)
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Round != 0 {
		t.Fatalf("round = %d, want 0", rep.Round)
	}
	for rank := 0; rank < n; rank++ {
		pr := m.Nodes[rank].Snap.(*ringProg)
		if pr.Acc != wantRingAcc(rank, n, iters) {
			t.Fatalf("rank %d acc = %d after from-scratch restart", rank, pr.Acc)
		}
	}
}

// seqSource streams 0..N-1 to rank 1, much faster than rank 1 consumes, so
// the flow-control window is always full: every round finds messages in
// transit on the 0->1 channel.
type seqSource struct{ N, Sent int }

func (s *seqSource) Run(e *mp.Env) {
	for s.Sent < s.N {
		w := codec.NewWriter()
		w.Int(s.Sent)
		e.Send(1, 3, w.Bytes())
		s.Sent++
		e.Compute(1e4)
	}
}
func (s *seqSource) Snapshot() []byte { w := codec.NewWriter(); w.Int(s.Sent); return w.Bytes() }
func (s *seqSource) Restore(b []byte) { s.Sent = codec.NewReader(b).Int() }

// seqSink consumes rank 0's stream slowly and counts the messages that did
// not arrive in send order. Its padding makes its checkpoint by far the
// largest, so its restore is the last to finish.
type seqSink struct {
	N, Got, OutOfOrder int
	pad                []byte
}

func (s *seqSink) Run(e *mp.Env) {
	for s.Got < s.N {
		if codec.NewReader(e.Recv(0, 3).Data).Int() != s.Got {
			s.OutOfOrder++
		}
		s.Got++
		e.Compute(2e6)
	}
}
func (s *seqSink) Snapshot() []byte {
	w := codec.NewWriter()
	w.Int(s.Got)
	w.Int(s.OutOfOrder)
	w.Bytes8(s.pad)
	return w.Bytes()
}
func (s *seqSink) Restore(b []byte) {
	r := codec.NewReader(b)
	s.Got, s.OutOfOrder, s.pad = r.Int(), r.Int(), r.Bytes8()
}

// TestRecoveryRequeuesChannelLogAheadOfNewTraffic: after a coordinated
// recovery, rank 0 — restored from a tiny checkpoint — is relaunched and
// sends to rank 1 while rank 1 is still reading its large checkpoint back.
// The logged in-transit messages rank 1 restores afterwards were sent before
// that new message, so rank 1 must consume them first: the 0->1 channel is
// consumed in send order end to end.
func TestRecoveryRequeuesChannelLogAheadOfNewTraffic(t *testing.T) {
	const n = 60
	m := par.NewMachine(par.DefaultConfig())
	defer m.Shutdown()
	factory := func(rank int) mp.Program {
		switch rank {
		case 0:
			return &seqSource{N: n}
		case 1:
			return &seqSink{N: n, pad: make([]byte, 1<<20)}
		}
		return idleProg{}
	}
	opt := Options{Interval: 2 * sim.Second}
	var rep *RecoveryReport
	var firstSend sim.Time // the relaunched rank 0's first message to rank 1
	var restored []Record  // the first round's records: the crash leaves it committed
	armed := opt
	armed.CommitHook = func(recs []Record) {
		if restored != nil {
			return
		}
		restored = recs
		m.Eng.After(sim.Second, func() { // the crash: round 1 is the one restored
			m.CrashAll()
			m.Eng.After(100*sim.Millisecond, func() {
				var w2 *mp.World
				w2, rep = Recover(m, CoordNB, opt, factory)
				w2.OnSend = func(src, dst int, _ *mp.Message) {
					if src == 0 && dst == 1 && firstSend == 0 {
						firstSend = m.Eng.Now()
					}
				}
			})
		})
	}
	New(CoordNB, armed).Attach(m)
	w := mp.NewWorld(m)
	for rank := range m.Nodes {
		w.Launch(rank, factory(rank))
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Done.Opened() || rep.Round < 1 || rep.ChanMsgs == 0 {
		t.Fatalf("want a recovery from a committed round with a logged 0->1 channel, got %+v", rep)
	}
	// Every rank read back its durable checkpoint file and, rank 1 at least,
	// its channel log: the report counts both.
	var want, logs int64
	for _, r := range restored {
		size, _ := m.StoreFor(r.Rank).Size(CoordNB.StatePath(r.Rank, r.Index))
		want += int64(size + r.ChanBytes)
		logs += int64(r.ChanBytes)
	}
	if restored[0].Index != rep.Round || logs == 0 || rep.BytesRead != want {
		t.Fatalf("round %d read back %d bytes, want %d: its files plus %d bytes of channel logs (restored round %d)",
			rep.Round, rep.BytesRead, want, logs, restored[0].Index)
	}
	if firstSend == 0 || firstSend >= rep.CompletedAt {
		t.Fatalf("rank 0 first sent at %v, rank 1 relaunched at %v: the race this test needs did not happen", firstSend, rep.CompletedAt)
	}
	sink := m.Nodes[1].Snap.(*seqSink)
	if sink.Got != n || sink.OutOfOrder != 0 {
		t.Fatalf("rank 1 consumed %d of %d messages, %d out of send order", sink.Got, n, sink.OutOfOrder)
	}
}

func TestSchemeDeterminism(t *testing.T) {
	for _, v := range []Variant{CoordNB, CoordNBMS, Indep, IndepM} {
		run := func() sim.Time {
			m, _, _ := runRing(t, v, Options{Interval: 2 * sim.Second}, 150, 80_000)
			return m.AppsFinished
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%v nondeterministic: %v vs %v", v, a, b)
		}
	}
}

// refVariant is the flat enum Variant replaced, with its five hand-maintained
// predicates kept verbatim: the reference the axis reads are held against.
type refVariant int

const (
	refCoordB refVariant = iota
	refCoordNB
	refCoordNBM
	refCoordNBMS
	refIndep
	refIndepM
	refCIC
	refCICM
	refCoordNBInc
	refIndepInc
	refCICInc
	refCoordNBFT
	refCoordNBFTInc
)

func (v refVariant) Coordinated() bool {
	return v <= refCoordNBMS || v == refCoordNBInc || v == refCoordNBFT || v == refCoordNBFTInc
}
func (v refVariant) Failover() bool { return v == refCoordNBFT || v == refCoordNBFTInc }
func (v refVariant) MemBuffered() bool {
	return v == refCoordNBM || v == refCoordNBMS || v == refIndepM || v == refCICM
}
func (v refVariant) CommunicationInduced() bool {
	return v == refCIC || v == refCICM || v == refCICInc
}
func (v refVariant) Incremental() bool {
	return v == refCoordNBInc || v == refIndepInc || v == refCICInc || v == refCoordNBFTInc
}

func TestVariantStringAndPredicates(t *testing.T) {
	// The 13 opened points in the order VariantNames has always listed them
	// (the refVariant enum order).
	cases := []struct {
		v    Variant
		name string
	}{
		{CoordB, "Coord_B"},
		{CoordNB, "Coord_NB"},
		{CoordNBM, "Coord_NBM"},
		{CoordNBMS, "Coord_NBMS"},
		{Indep, "Indep"},
		{IndepM, "Indep_M"},
		{CIC, "CIC"},
		{CICM, "CIC_M"},
		{CoordNBInc, "Coord_NB_INC"},
		{IndepInc, "Indep_INC"},
		{CICInc, "CIC_INC"},
		{CoordNBFT, "Coord_NB_FT"},
		{CoordNBFTInc, "Coord_NB_FT_INC"},
	}
	names := VariantNames()
	if len(names) != len(cases) {
		t.Fatalf("VariantNames() = %v, want %d entries", names, len(cases))
	}
	seen := map[Variant]string{}
	for i, c := range cases {
		ref := refVariant(i)
		if c.v.String() != c.name || names[i] != c.name {
			t.Errorf("entry %d: String() = %q, VariantNames()[%d] = %q, want %q", i, c.v.String(), i, names[i], c.name)
		}
		if v, ok := ParseVariant(c.v.String()); !ok || v != c.v {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", c.v.String(), v, ok, c.v)
		}
		if prev, dup := seen[c.v]; dup {
			t.Errorf("%s and %s are the same point on the axes", prev, c.name)
		}
		seen[c.v] = c.name
		for _, p := range []struct {
			pred      string
			got, want bool
		}{
			{"Coordinated", c.v.Coordinated(), ref.Coordinated()},
			{"ThreePhase", c.v.ThreePhase, ref.Failover()},
			{"MemBuffered", c.v.MemBuffered(), ref.MemBuffered()},
			{"CommunicationInduced", c.v.CommunicationInduced(), ref.CommunicationInduced()},
			{"Incremental", c.v.Incremental(), ref.Incremental()},
		} {
			if p.got != p.want {
				t.Errorf("%s: %s = %v, the enum's predicate says %v", c.name, p.pred, p.got, p.want)
			}
		}
		// The durable layout: captured files read back through the one
		// reader, and every path parses back to what built it.
		const rank, pad = 5, 100
		snaps := [][]byte{bytes.Repeat([]byte{1}, 300), append(bytes.Repeat([]byte{1}, 200), bytes.Repeat([]byte{2}, 100)...)}
		files := capturedFiles(c.v, rank, pad, snaps)
		for index := 1; index <= len(snaps); index++ {
			img, err := new(Replayer).ReconstructCkpt(c.v, rank, index, func(path string, _ []byte) ([]byte, error) {
				return files[path], nil
			})
			if want := append(bytes.Clone(snaps[index-1]), make([]byte, pad)...); err != nil || !bytes.Equal(img, want) {
				t.Errorf("%s: checkpoint %d reads back as %d bytes (%v), captured %d", c.name, index, len(img), err, len(want))
			}
		}
		paths := map[string]func(int, int) string{"StatePath": c.v.StatePath}
		if c.v.Coordinated() {
			paths["ChanPath"] = c.v.ChanPath
		}
		for fn, path := range paths {
			for _, index := range []int{1, 2, 17, 123} {
				want := index
				if c.v.Coordinated() {
					want = index % c.v.slots()
				}
				if r, i, ok := c.v.ParsePath(path(rank, index)); !ok || r != rank || i != want {
					t.Errorf("%s: ParsePath(%s(%d, %d)) = %d, %d, %v", c.name, fn, rank, index, r, i, ok)
				}
			}
		}
	}
	if (Variant{}) != CoordB {
		t.Error("the zero Variant is no longer Coord_B")
	}
	for _, name := range []string{"NoSuchScheme", "Indep_Log"} {
		if _, ok := ParseVariant(name); ok {
			t.Errorf("ParseVariant accepted %q", name)
		}
	}
	// A legal point nobody has opened has no name, and New refuses it.
	unopened := Variant{Driver: DriverRounds, Capture: CaptureIncremental, Write: WriteMemStagger}
	if _, ok := ParseVariant(unopened.String()); ok {
		t.Errorf("unopened point prints as an accepted name %q", unopened)
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted an unopened point")
		}
	}()
	New(unopened, Options{Interval: sim.Second})
}

// capturedFiles is what the drivers leave on stable storage for rank's
// checkpoints 1, 2, ... of snaps under v, by path: a full record, or a
// base+delta chain.
func capturedFiles(v Variant, rank, pad int, snaps [][]byte) map[string][]byte {
	files := map[string][]byte{}
	img := heldImage{incremental: true}
	for i, snap := range snaps {
		index := i + 1
		var file [][]byte
		switch {
		case v.Incremental():
			payload, prev := img.encode(index, snap, pad, 64)
			file = encodeCkptFile(v, CkptFile{Index: index, Prev: prev}, payload, 0)
			img.commit()
		default:
			file = encodeCkptFile(v, CkptFile{Index: index}, [][]byte{snap}, pad)
		}
		files[v.StatePath(rank, index)] = bytes.Join(file, nil)
	}
	return files
}

func TestChanLogCodecRoundTrip(t *testing.T) {
	msgs := []*mp.Message{
		{Src: 1, Tag: 5, Meta: par.Piggyback{9, 2}, Data: []byte("abc")},
		{Src: 2, Tag: 0, Data: nil},
	}
	got, err := DecodeChanLog(encodeChanLog(msgs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Src != 1 || got[0].Tag != 5 || got[0].Meta != (par.Piggyback{9, 2}) ||
		string(got[0].Data) != "abc" || got[1].Src != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := DecodeChanLog([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt log accepted")
	}
}

func TestIndepCkptCodecRoundTrip(t *testing.T) {
	deps := []Dep{{SrcRank: 3, SrcIndex: 7}, {SrcRank: 0, SrcIndex: 1}}
	f, err := decodeCkptFile(Indep, flatCkptFile(Indep, CkptFile{Index: 4, Deps: deps, State: []byte("state"), Lib: []byte("lib")}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if f.Index != 4 || len(f.Deps) != 2 || f.Deps[0] != deps[0] || string(f.State) != "state" || string(f.Lib) != "lib" {
		t.Fatalf("round trip: %+v", f)
	}
	if _, err := decodeCkptFile(Indep, []byte{9}); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// TestCkptCodecRoundTrip round-trips one record through the single codec as
// each family writes it, and pins the bytes: the literals are what the three
// encoders this codec replaced (independent, CIC, incremental) produced for
// the same record.
func TestCkptCodecRoundTrip(t *testing.T) {
	const (
		full = "09000000000000000200000000000000030000000000000007000000000000000000000000000000" +
			"01000000000000000500000000000000737461746503000000000000006c6962"
		inc = "090000000000000008000000000000000200000000000000030000000000000007000000000000000000000000000000" +
			"01000000000000000500000000000000737461746503000000000000006c6962"
	)
	deps := []Dep{{SrcRank: 3, SrcIndex: 7}, {SrcRank: 0, SrcIndex: 1}}
	for _, c := range []struct {
		v    Variant
		prev int
		want string
	}{
		{Indep, 0, full},
		{CIC, 0, full},
		{IndepInc, 8, inc},
		{CICInc, 8, inc},
		{CoordNBInc, 8, inc},
	} {
		in := CkptFile{Index: 9, Prev: c.prev, Deps: deps, State: []byte("state"), Lib: []byte("lib")}
		data := flatCkptFile(c.v, in, 0)
		if got := fmt.Sprintf("%x", data); got != c.want {
			t.Errorf("%v: encoded\n  %s, want\n  %s", c.v, got, c.want)
		}
		f, err := decodeCkptFile(c.v, data)
		if err != nil {
			t.Fatal(err)
		}
		if f.Index != 9 || f.Prev != c.prev || len(f.Deps) != 2 || f.Deps[0] != deps[0] || string(f.State) != "state" || string(f.Lib) != "lib" {
			t.Errorf("%v round trip: %+v", c.v, f)
		}
		if _, err := decodeCkptFile(c.v, []byte{1, 2}); err == nil {
			t.Errorf("%v: corrupt checkpoint accepted", c.v)
		}
	}
}

func TestMaxCheckpointsCap(t *testing.T) {
	_, _, sch := runRing(t, CoordNB, Options{Interval: sim.Second, MaxCheckpoints: 3}, 400, 10_000)
	if got := sch.Stats().Rounds; got != 3 {
		t.Fatalf("rounds = %d, want 3", got)
	}
	_, _, sch = runRing(t, Indep, Options{Interval: sim.Second, MaxCheckpoints: 2}, 400, 10_000)
	recs := sch.Records()
	perNode := map[int]int{}
	for _, r := range recs {
		perNode[r.Rank]++
	}
	for rank, c := range perNode {
		if c != 2 {
			t.Fatalf("node %d took %d checkpoints, want 2", rank, c)
		}
	}
}

func TestSyncCostIsSmall(t *testing.T) {
	// With zero-size state a round costs only protocol plus the (tiny) empty
	// file writes; with large state the cost is dominated by state saving.
	// The paper's claim is that the synchronization share is negligible.
	perRound := func(payload int) sim.Duration {
		_, _, sch := runRing(t, CoordNB, Options{Interval: 3 * sim.Second, MaxCheckpoints: 2}, 400, payload)
		st := sch.Stats()
		if st.Rounds != 2 {
			t.Fatalf("payload %d: rounds = %d", payload, st.Rounds)
		}
		return st.AppBlocked / sim.Duration(st.Rounds*8)
	}
	empty, full := perRound(0), perRound(500_000)
	if empty > full/4 {
		t.Fatalf("protocol-only block %v not small against state-dominated block %v", empty, full)
	}
}

func ExampleVariant_String() {
	fmt.Println(CoordNBMS, IndepM)
	// Output: Coord_NBMS Indep_M
}
