package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/sim"
	"repro/internal/storage"
)

// A probe times one public operation of one layer at a fixed operation
// count, from outside, and emits one or more per-layer metrics. Probes do
// not depend on the workload or on the seed: they say what a layer costs per
// operation, the workloads' counts say how many operations there were.
type probe func(smoke bool, emit func(name string, v float64)) error

var probes = []probe{
	probeSimTimer, probeSimSwitch, probeSimSpawn, probeSimResource, probeSimMailbox,
	probeFabricMsg, probeFabricPacket, probeRoute, probeNewMachine, probeStorageCall,
	probeStorage, probeCodecScalar, probeCodecDelta, probeMP, probeRounds, probeRecoveryLine,
	probeKernels,
}

// runProbes runs every probe reps times and returns each metric's median.
func runProbes(smoke bool, reps int) (map[string]float64, error) {
	samples := make(map[string][]float64)
	for rep := 0; rep < reps; rep++ {
		for _, p := range probes {
			err := p(smoke, func(name string, v float64) { samples[name] = append(samples[name], v) })
			if err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
		}
	}
	out := make(map[string]float64, len(samples))
	for name, vs := range samples {
		out[name] = median(vs)
	}
	return out, nil
}

// nsPer returns the host nanoseconds per operation since start.
func nsPer(start time.Time, ops int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// mbPerS returns the decimal megabytes per host second since start.
func mbPerS(start time.Time, n int) float64 {
	return float64(n) / 1e6 / time.Since(start).Seconds()
}

// runEngine runs e to completion and reaps its processes.
func runEngine(e *sim.Engine) error {
	defer e.Shutdown()
	return e.Run()
}

// probeSimTimer: 64 interleaved After cascades, the engine-context event path.
func probeSimTimer(smoke bool, emit func(string, float64)) error {
	n := pick(smoke, 2_000, 400_000)
	e := sim.New()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired+64 <= n {
			e.After(sim.Duration(1+fired%7), tick)
		}
	}
	for i := 0; i < 64; i++ {
		e.After(sim.Duration(i), tick)
	}
	start := time.Now()
	if err := runEngine(e); err != nil {
		return err
	}
	emit("sim.timer_ns_per_event", nsPer(start, fired))
	if fired != n {
		return fmt.Errorf("timer cascade fired %d of %d events", fired, n)
	}
	return nil
}

// probeSimSwitch: one process sleeping in a loop; every Sleep is a park and
// a resume, two goroutine handoffs.
func probeSimSwitch(smoke bool, emit func(string, float64)) error {
	n := pick(smoke, 500, 60_000)
	e := sim.New()
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	start := time.Now()
	if err := runEngine(e); err != nil {
		return err
	}
	emit("sim.proc_switch_ns", nsPer(start, n))
	return nil
}

// probeSimSpawn: spawn, run one Sleep, exit — the life of a fabric courier.
func probeSimSpawn(smoke bool, emit func(string, float64)) error {
	n := pick(smoke, 300, 30_000)
	e := sim.New()
	done := 0
	e.Spawn("spawner", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			e.Spawn("courier", func(c *sim.Proc) {
				c.Sleep(1)
				done++
			})
			if i%64 == 63 {
				p.Sleep(2) // let the batch drain, as couriers do between sends
			}
		}
	})
	start := time.Now()
	if err := runEngine(e); err != nil {
		return err
	}
	emit("sim.spawn_ns_per_proc", nsPer(start, n))
	if done != n {
		return fmt.Errorf("%d of %d spawned processes finished", done, n)
	}
	return nil
}

// probeSimResource: 16 processes contending for one unit — a busy link.
func probeSimResource(smoke bool, emit func(string, float64)) error {
	const procs = 16
	per := pick(smoke, 20, 2_500)
	e := sim.New()
	r := sim.NewResource(e, 1)
	for i := 0; i < procs; i++ {
		e.Spawn("holder", func(p *sim.Proc) {
			for k := 0; k < per; k++ {
				r.Acquire(p)
				p.Sleep(1)
				r.Release()
			}
		})
	}
	start := time.Now()
	if err := runEngine(e); err != nil {
		return err
	}
	emit("sim.resource_handoff_ns", nsPer(start, procs*per))
	return nil
}

// probeSimMailbox: one producer, one consumer parked in GetAny.
func probeSimMailbox(smoke bool, emit func(string, float64)) error {
	n := pick(smoke, 300, 40_000)
	e := sim.New()
	mb := sim.NewMailbox[int](e)
	sum := 0
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sum += mb.GetAny(p)
		}
	})
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			mb.Put(1)
			p.Sleep(1)
		}
	})
	start := time.Now()
	if err := runEngine(e); err != nil {
		return err
	}
	emit("sim.mailbox_ns_per_msg", nsPer(start, n))
	if sum != n {
		return fmt.Errorf("mailbox delivered %d of %d", sum, n)
	}
	return nil
}

// meshFabric returns the default interconnect stretched to a side x side mesh.
func meshFabric(side int) fabric.Config {
	cfg := par.DefaultConfig().Fabric
	cfg.MeshW, cfg.MeshH = side, side
	return cfg
}

// probeFabricMsg: 64-byte messages, every node to every 8th other node of a
// 16x16 mesh, all injected at time zero — the shape of a marker flood.
func probeFabricMsg(smoke bool, emit func(string, float64)) error {
	side := pick(smoke, 4, 16)
	e := sim.New()
	net := fabric.New(e, meshFabric(side))
	nodes := side * side
	delivered := 0
	for i := 0; i < nodes; i++ {
		net.SetDeliver(fabric.NodeID(i), func(*fabric.Envelope) { delivered++ })
	}
	sent := 0
	start := time.Now()
	for src := 0; src < nodes; src++ {
		for dst := src % 8; dst < nodes; dst += 8 {
			if dst != src {
				net.Send(nil, &fabric.Envelope{Src: fabric.NodeID(src), Dst: fabric.NodeID(dst), Size: 64})
				sent++
			}
		}
	}
	if err := runEngine(e); err != nil {
		return err
	}
	emit("fabric.send_ns_per_msg", nsPer(start, sent))
	if delivered != sent {
		return fmt.Errorf("fabric delivered %d of %d messages", delivered, sent)
	}
	return nil
}

// probeFabricPacket: 1 MiB from every node of the default mesh to the host
// in 4 KiB packets — a checkpoint image on its way to stable storage.
func probeFabricPacket(smoke bool, emit func(string, float64)) error {
	size := pick(smoke, 64<<10, 1<<20)
	cfg := par.DefaultConfig().Fabric
	e := sim.New()
	net := fabric.New(e, cfg)
	delivered := 0
	net.SetDeliver(cfg.Host(), func(*fabric.Envelope) { delivered++ })
	packetHops := 0
	start := time.Now()
	for src := 0; src < cfg.Nodes(); src++ {
		packets := (size + cfg.PacketBytes - 1) / cfg.PacketBytes
		packetHops += packets * len(net.Path(fabric.NodeID(src), cfg.Host()))
		net.Send(nil, &fabric.Envelope{Src: fabric.NodeID(src), Dst: cfg.Host(), Size: size})
	}
	if err := runEngine(e); err != nil {
		return err
	}
	emit("fabric.send_ns_per_packet_hop", nsPer(start, packetHops))
	if delivered != cfg.Nodes() {
		return fmt.Errorf("host received %d of %d images", delivered, cfg.Nodes())
	}
	return nil
}

// probeRoute: first-time Network.Path between distinct pairs of a 32x32 mesh.
func probeRoute(smoke bool, emit func(string, float64)) error {
	side := pick(smoke, 8, 32)
	e := sim.New()
	defer e.Shutdown()
	net := fabric.New(e, meshFabric(side))
	nodes := side * side
	pairs := pick(smoke, 64, 8192)
	hops := 0
	start := time.Now()
	for i := 0; i < pairs; i++ {
		src := i % nodes
		dst := (src + 1 + (i/nodes)*37 + i*7) % nodes
		hops += len(net.Path(fabric.NodeID(src), fabric.NodeID(dst)))
	}
	emit("topo.route_ns", nsPer(start, pairs))
	if hops == 0 {
		return fmt.Errorf("routes are empty")
	}
	return nil
}

// probeNewMachine: assembling and tearing down a machine, paid once per cell.
func probeNewMachine(smoke bool, emit func(string, float64)) error {
	for _, m := range []struct {
		name          string
		side, servers int
	}{{"par.new_machine_ms_256", pick(smoke, 4, 16), 4}, {"par.new_machine_ms_1024", pick(smoke, 8, 32), 16}} {
		cfg := par.DefaultConfig()
		cfg.Fabric.MeshW, cfg.Fabric.MeshH = m.side, m.side
		cfg.StorageServers = m.servers
		start := time.Now()
		mach := par.NewMachine(cfg)
		mach.Shutdown()
		emit(m.name, float64(time.Since(start).Nanoseconds())/1e6)
		if mach.NumNodes() != m.side*m.side {
			return fmt.Errorf("machine has %d nodes", mach.NumNodes())
		}
	}
	return nil
}

// probeStorageCall: Node.StorageCall round trips from the far corner of the
// default mesh — request over the fabric, server queue, reply back.
func probeStorageCall(smoke bool, emit func(string, float64)) error {
	n := pick(smoke, 50, 3_000)
	m := par.NewMachine(par.DefaultConfig())
	defer m.Shutdown()
	node := m.Nodes[m.NumNodes()-1]
	data := make([]byte, 64)
	failed := 0
	m.StartDaemon(node.ID, "probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if r := node.StorageCall(p, storage.Request{Op: storage.OpWrite, Path: "probe", Data: data, Durable: true}); r.Err != nil {
				failed++
			}
		}
	})
	start := time.Now()
	if err := m.Run(); err != nil {
		return err
	}
	emit("par.storage_call_ns", nsPer(start, n))
	if reqs, _, _, _ := m.Store.Stats(); failed > 0 || reqs != int64(n) {
		return fmt.Errorf("storage served %d of %d calls, %d failed", reqs, n, failed)
	}
	return nil
}

// probeStorage: 64 KiB blobs straight into Server.Submit, then read back.
func probeStorage(smoke bool, emit func(string, float64)) error {
	n := pick(smoke, 8, 384)
	const blob = 64 << 10
	e := sim.New()
	defer e.Shutdown()
	srv := storage.New(e, par.DefaultConfig().Storage)
	data := make([]byte, blob)
	fill(data, 7)
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("blob/%d", i)
	}
	start := time.Now()
	for _, path := range paths {
		srv.Submit(storage.Request{Op: storage.OpWrite, Path: path, Data: data, Durable: true})
	}
	if err := e.Run(); err != nil {
		return err
	}
	emit("storage.write_ns_per_req", nsPer(start, n))
	emit("storage.write_mb_per_s", mbPerS(start, n*blob))
	good := 0
	start = time.Now()
	for _, path := range paths {
		srv.Submit(storage.Request{Op: storage.OpRead, Path: path, Done: func(r storage.Reply) {
			if r.Err == nil && bytes.Equal(r.Data, data) {
				good++
			}
		}})
	}
	if err := e.Run(); err != nil {
		return err
	}
	emit("storage.read_ns_per_req", nsPer(start, n))
	if good != n {
		return fmt.Errorf("storage read back %d of %d blobs intact", good, n)
	}
	return nil
}

// probeCodecScalar: the calls every Snapshot makes — Bytes8 of a 1 MiB
// buffer into a fresh Writer, and a float slice of the same size both ways.
func probeCodecScalar(smoke bool, emit func(string, float64)) error {
	size := pick(smoke, 64<<10, 1<<20)
	rounds := pick(smoke, 2, 24)
	buf := make([]byte, size)
	fill(buf, 11)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		w := codec.NewWriter()
		w.Bytes8(buf)
		if w.Len() != size+8 {
			return fmt.Errorf("Bytes8 wrote %d bytes", w.Len())
		}
	}
	emit("codec.bytes8_mb_per_s", mbPerS(start, rounds*size))

	fs := make([]float64, size/8)
	for i := range fs {
		fs[i] = float64(i) * 0.5
	}
	var enc []byte
	start = time.Now()
	for i := 0; i < rounds; i++ {
		w := codec.NewWriter()
		w.F64s(fs)
		enc = w.Bytes()
	}
	emit("codec.f64s_enc_mb_per_s", mbPerS(start, rounds*size))
	var dec []float64
	start = time.Now()
	for i := 0; i < rounds; i++ {
		dec = codec.NewReader(enc).F64s()
	}
	emit("codec.f64s_dec_mb_per_s", mbPerS(start, rounds*size))
	if len(dec) != len(fs) || dec[len(dec)-1] != fs[len(fs)-1] {
		return fmt.Errorf("F64s round trip lost data")
	}
	return nil
}

// probeCodecDelta: the incremental path on a 1 MiB image, half of it zero:
// zero-run base encoding, the dirty scan, a delta with 10 % of the pages
// dirty, applying it, and replaying a base plus three deltas.
func probeCodecDelta(smoke bool, emit func(string, float64)) error {
	size := pick(smoke, 64<<10, 1<<20)
	rounds := pick(smoke, 2, 16)
	const page = 4096
	prev := make([]byte, size)
	fill(prev[:size/2], 13)
	cur := append([]byte(nil), prev...)
	for pg := 0; pg < size/page; pg += 10 {
		fill(cur[pg*page:(pg+1)*page], uint64(pg)+17)
	}

	var base []byte
	start := time.Now()
	for i := 0; i < rounds; i++ {
		base = codec.EncodeBaseImage(prev)
	}
	emit("codec.base_rle_mb_per_s", mbPerS(start, rounds*size))

	tracker := par.NewDirtyTracker(page)
	tracker.Retain(prev)
	dirty := 0
	start = time.Now()
	for i := 0; i < rounds; i++ {
		dirty = len(tracker.DirtyPages(cur))
	}
	emit("par.dirty_scan_mb_per_s", mbPerS(start, rounds*size))
	if want := (size/page + 9) / 10; dirty != want {
		return fmt.Errorf("dirty scan found %d pages, want %d", dirty, want)
	}

	var delta []byte
	start = time.Now()
	for i := 0; i < rounds; i++ {
		delta = codec.EncodeDelta(prev, cur, page)
	}
	emit("codec.delta_mb_per_s", mbPerS(start, rounds*size))

	var applied []byte
	var err error
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if applied, err = codec.ApplyDelta(prev, delta); err != nil {
			return err
		}
	}
	emit("codec.apply_delta_mb_per_s", mbPerS(start, rounds*size))
	if !bytes.Equal(applied, cur) {
		return fmt.Errorf("applied delta differs from the image it encoded")
	}

	clean := codec.EncodeDelta(cur, cur, page)
	chain := [][]byte{base, delta, clean, clean}
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if applied, err = codec.ReconstructImage(chain); err != nil {
			return err
		}
	}
	emit("codec.reconstruct_mb_per_s", mbPerS(start, rounds*size))
	if !bytes.Equal(applied, cur) {
		return fmt.Errorf("reconstructed chain differs from the last image")
	}
	return nil
}

// pingProg bounces a message between rank 0 and the last rank; reduceProg
// has every rank all-reduce a short vector. Both are stateless between
// iterations apart from the counter, which is all Snapshot carries.
type pingProg struct{ Rank, Size, Iters, Iter int }

func (g *pingProg) Run(e *mp.Env) {
	peer, payload := g.Size-1, make([]byte, 64)
	for ; g.Iter < g.Iters; g.Iter++ {
		switch g.Rank {
		case 0:
			e.Send(peer, 1, payload)
			e.Recv(peer, 1)
		case peer:
			e.Recv(0, 1)
			e.Send(0, 1, payload)
		}
	}
}

type reduceProg struct {
	Iters, Iter int
	Sum         float64
}

func (g *reduceProg) Run(e *mp.Env) {
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(e.Rank + 1)
	}
	for ; g.Iter < g.Iters; g.Iter++ {
		g.Sum = e.AllReduceF64(vals, func(a, b float64) float64 { return a + b })[0]
	}
}

func snapshotInt(v int) []byte {
	w := codec.NewWriter()
	w.Int(v)
	return w.Bytes()
}

func (g *pingProg) Snapshot() []byte   { return snapshotInt(g.Iter) }
func (g *pingProg) Restore(b []byte)   { g.Iter = codec.NewReader(b).Int() }
func (g *reduceProg) Snapshot() []byte { return snapshotInt(g.Iter) }
func (g *reduceProg) Restore(b []byte) { g.Iter = codec.NewReader(b).Int() }
func timeRun(wl apps.Workload) (time.Duration, error) {
	start := time.Now()
	_, err := core.Run(wl, core.Default())
	return time.Since(start), err
}

// probeMP: the message layer through core.Run on the default 8 ranks.
func probeMP(smoke bool, emit func(string, float64)) error {
	iters := pick(smoke, 20, 1_500)
	wall, err := timeRun(apps.Workload{Name: "PINGPONG",
		Make: func(rank, size int) mp.Program { return &pingProg{Rank: rank, Size: size, Iters: iters} }})
	if err != nil {
		return err
	}
	emit("mp.pingpong_ns_per_msg", float64(wall.Nanoseconds())/float64(2*iters))

	iters = pick(smoke, 10, 400)
	wall, err = timeRun(apps.Workload{Name: "ALLREDUCE",
		Make: func(rank, size int) mp.Program { return &reduceProg{Iters: iters} },
		Check: func(progs []mp.Program) error {
			want := float64(len(progs) * (len(progs) + 1) / 2)
			for rank, p := range progs {
				if got := p.(*reduceProg).Sum; got != want {
					return fmt.Errorf("allreduce: rank %d sum %v, want %v", rank, got, want)
				}
			}
			return nil
		}})
	if err != nil {
		return err
	}
	emit("mp.reduce_ns_per_op", float64(wall.Nanoseconds())/float64(iters))
	return nil
}

// probeRounds: what one checkpoint round costs the host under each protocol
// family, as (scheme wall - failure-free wall) / rounds on the oracle's ring.
func probeRounds(smoke bool, emit func(string, float64)) error {
	wl := bench.RingWorkload(256, 40, 2e5)
	cfg := par.DefaultConfig()
	const ckpts = 8
	start := time.Now()
	base, err := baselineRun(wl, cfg, instr{})
	if err != nil {
		return err
	}
	baseWall := time.Since(start)
	for _, s := range []struct {
		name string
		v    ckpt.Variant
	}{{"coord", ckpt.CoordNB}, {"indep", ckpt.Indep}, {"cic", ckpt.CIC}} {
		start := time.Now()
		res, err := schemeRun(wl, cfg, s.v, base.Exec, ckpts, instr{})
		if err != nil {
			return err
		}
		wall := time.Since(start)
		rounds := float64(res.Ckpt.Rounds)
		if !s.v.Coordinated() {
			rounds = float64(res.Ckpt.Checkpoints) / float64(cfg.Fabric.Nodes())
		}
		if rounds < 1 {
			return fmt.Errorf("%v completed no checkpoint round", s.v)
		}
		emit("ckpt.round_host_ms."+s.name, float64((wall-baseWall).Nanoseconds())/1e6/rounds)
	}
	return nil
}

// probeRecoveryLine: building the rollback-dependency graph of 64 ranks x 50
// checkpoints with two seeded receive edges each, and propagating rollbacks.
func probeRecoveryLine(smoke bool, emit func(string, float64)) error {
	ranks, ckpts := pick(smoke, 8, 64), pick(smoke, 6, 50)
	var recs []ckpt.Record
	for rank := 0; rank < ranks; rank++ {
		for idx := 1; idx <= ckpts; idx++ {
			rec := ckpt.Record{Rank: rank, Index: idx, At: sim.Time(idx*1000 + rank)}
			for k := 0; k < 2; k++ {
				h := splitmix(uint64(rank)<<20 ^ uint64(idx)<<4 ^ uint64(k))
				src := int(h % uint64(ranks))
				if src == rank {
					continue
				}
				// Mostly sends from the same or an earlier interval, with a few
				// from a later one: those are the orphans that force rollbacks.
				from := idx - 1 - int(h>>32%3) + int(h>>40%8/7)*2
				rec.Deps = append(rec.Deps, ckpt.Dep{SrcRank: src, SrcIndex: uint64(max(from, 0))})
			}
			recs = append(recs, rec)
		}
	}
	const rounds = 20
	var line []int
	start := time.Now()
	for i := 0; i < rounds; i++ {
		line = rdg.FromRecords(ranks, recs).RecoveryLine()
	}
	emit("rdg.recovery_line_us", nsPer(start, rounds)/1e3)
	if g := rdg.FromRecords(ranks, recs); len(line) != ranks || !g.Consistent(line) {
		return fmt.Errorf("recovery line %v is not consistent", line)
	}
	return nil
}

// probeKernels: each quick app run failure-free — host time that is almost
// entirely the application's own arithmetic.
func probeKernels(smoke bool, emit func(string, float64)) error {
	names := []string{"ISING", "SOR", "GAUSS", "ASP", "NBODY", "TSP", "NQUEENS"}
	wls := paperApps(1, smoke)
	for i, name := range names {
		wl := wls[i%len(wls)] // the smoke set has two apps; reuse them for the names it lacks
		wall, err := timeRun(wl)
		if err != nil {
			return err
		}
		emit("apps.kernel_host_ms."+name, float64(wall.Nanoseconds())/1e6)
	}
	return nil
}
