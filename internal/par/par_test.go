package par

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/storage"
)

func TestMachineWiring(t *testing.T) {
	m := NewMachine(DefaultConfig())
	if m.NumNodes() != 8 {
		t.Fatalf("nodes = %d, want 8", m.NumNodes())
	}
	if m.Cfg.Fabric.Host() != 8 {
		t.Fatalf("host id = %d", m.Cfg.Fabric.Host())
	}
}

func TestNodeToNodeSend(t *testing.T) {
	m := NewMachine(DefaultConfig())
	var got any
	m.StartApp(1, "recv", func(p *sim.Proc) {
		env := m.Nodes[1].AppBox.GetAny(p)
		got = env.Payload
	})
	m.StartApp(0, "send", func(p *sim.Proc) {
		m.Nodes[0].Send(p, 1, PortApp, "hello", 100)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %v", got)
	}
}

func TestStorageCallRoundTrip(t *testing.T) {
	m := NewMachine(DefaultConfig())
	var wrote, read storage.Reply
	m.StartApp(3, "daemonish", func(p *sim.Proc) {
		n := m.Nodes[3]
		wrote = n.StorageCall(p, storage.Request{Op: storage.OpWrite, Path: "f", Data: make([]byte, 1000), Durable: true})
		read = n.StorageCall(p, storage.Request{Op: storage.OpRead, Path: "f"})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if wrote.Err != nil || read.Err != nil || len(read.Data) != 1000 {
		t.Fatalf("wrote=%+v read err=%v len=%d", wrote, read.Err, len(read.Data))
	}
}

func TestStorageCallChargesNetworkAndDiskTime(t *testing.T) {
	m := NewMachine(DefaultConfig())
	var took sim.Duration
	m.StartApp(0, "writer", func(p *sim.Proc) {
		start := p.Now()
		m.Nodes[0].StorageCall(p, storage.Request{Op: storage.OpWrite, Path: "f", Data: make([]byte, 1_000_000), Durable: true})
		took = p.Now().Sub(start)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Must cost at least host-link transfer (1s @ 1MB/s) + disk write
	// (~0.83s @ 1.2MB/s) + request overhead.
	if took < 1800*sim.Millisecond || took > 2200*sim.Millisecond {
		t.Fatalf("storage call took %v, want ≈1.85s", took)
	}
}

func TestConcurrentStorageCallsOnOneNode(t *testing.T) {
	m := NewMachine(DefaultConfig())
	n := m.Nodes[3]
	sizes := []int{300_000, 1000}
	got := make([]storage.Reply, len(sizes))
	for i, size := range sizes {
		m.Eng.Spawn(fmt.Sprintf("writer%d", i), func(p *sim.Proc) {
			got[i] = n.StorageCall(p, storage.Request{Op: storage.OpWrite, Path: fmt.Sprintf("f%d", i), Data: make([]byte, size), Durable: true})
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Err != nil || r.Size != sizes[i] {
			t.Errorf("writer%d: reply %+v, want size %d", i, r, sizes[i])
		}
	}
}

func TestLateReplyAfterDeadlineIsDropped(t *testing.T) {
	m := NewMachine(DefaultConfig())
	n := m.Nodes[3]
	small := []byte("sixteen bytes!!!")
	var late, read storage.Reply
	var waited sim.Duration
	m.Eng.Spawn("client", func(p *sim.Proc) {
		n.StorageCall(p, storage.Request{Op: storage.OpWrite, Path: "small", Data: small, Durable: true})
		start := p.Now()
		late = n.StorageCallTimeoutOn(p, n.Shard(), storage.Request{Op: storage.OpWrite, Path: "big", Data: make([]byte, 1_000_000), Durable: true}, 100*sim.Millisecond)
		waited = p.Now().Sub(start)
		// The read queues behind the big write, so the write's late reply
		// arrives while the read is outstanding.
		read = n.StorageCall(p, storage.Request{Op: storage.OpRead, Path: "small"})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(late.Err, storage.ErrUnavailable) {
		t.Fatalf("timed-out write: %+v, want ErrUnavailable", late)
	}
	if want := m.Cfg.Fabric.SendOverhead + 100*sim.Millisecond; waited != want {
		t.Errorf("timed-out write returned after %v, want %v", waited, want)
	}
	if read.Err != nil || !bytes.Equal(read.Data, small) {
		t.Fatalf("read after the deadline got %+v, want %q", read, small)
	}
	if size, _ := m.Store.Size("big"); size != 1_000_000 {
		t.Errorf("late write stored %d bytes, want 1000000", size)
	}
}

func TestPostActionReachesAppBox(t *testing.T) {
	m := NewMachine(DefaultConfig())
	ran := false
	m.StartApp(2, "app", func(p *sim.Proc) {
		env := m.Nodes[2].AppBox.GetAny(p)
		env.Payload.(Action).Run(p, m.Nodes[2])
	})
	m.Eng.At(sim.Time(sim.Second), func() {
		m.Nodes[2].PostAction(funcAction(func(p *sim.Proc, n *Node) { ran = true }))
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("action not executed")
	}
}

type funcAction func(p *sim.Proc, n *Node)

func (f funcAction) Run(p *sim.Proc, n *Node) { f(p, n) }

func TestDeliverHookConsumes(t *testing.T) {
	m := NewMachine(DefaultConfig())
	var hooked []any
	m.Nodes[1].DeliverHook = func(env *fabric.Envelope) bool {
		if s, ok := env.Payload.(string); ok && s == "marker" {
			hooked = append(hooked, s)
			return true
		}
		return false
	}
	m.StartApp(1, "recv", func(p *sim.Proc) {
		env := m.Nodes[1].AppBox.GetAny(p)
		if env.Payload != "app" {
			t.Errorf("app got %v", env.Payload)
		}
	})
	m.StartApp(0, "send", func(p *sim.Proc) {
		m.Nodes[0].Send(p, 1, PortApp, "marker", 10)
		m.Nodes[0].Send(p, 1, PortApp, "app", 10)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 {
		t.Fatalf("hook consumed %v", hooked)
	}
}

func TestCrashAllDropsInFlightAndKillsProcs(t *testing.T) {
	m := NewMachine(DefaultConfig())
	delivered := false
	m.StartApp(7, "recv", func(p *sim.Proc) {
		m.Nodes[7].AppBox.GetAny(p)
		delivered = true
	})
	m.StartApp(0, "send", func(p *sim.Proc) {
		// Big message still in flight when the crash hits.
		m.Nodes[0].Send(p, 7, PortApp, "late", 1_000_000)
		p.Sleep(10 * sim.Second)
	})
	m.Eng.At(sim.Time(10*sim.Millisecond), func() { m.CrashAll() })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("stale-epoch message delivered after crash")
	}
	if m.AppsLive() != 0 {
		t.Fatalf("AppsLive = %d", m.AppsLive())
	}
}

func TestAllAppsDoneHook(t *testing.T) {
	m := NewMachine(DefaultConfig())
	fired := sim.Time(-1)
	m.OnAllAppsDone(func() { fired = m.Eng.Now() })
	for i := 0; i < 3; i++ {
		d := sim.Duration(i+1) * sim.Second
		m.StartApp(i, "app", func(p *sim.Proc) { p.Sleep(d) })
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != sim.Time(3*sim.Second) {
		t.Fatalf("hook fired at %v, want 3s", fired)
	}
	if m.AppsFinished != sim.Time(3*sim.Second) {
		t.Fatalf("AppsFinished = %v", m.AppsFinished)
	}
}

func TestSingleNodeCrashLosesOnlyItsTraffic(t *testing.T) {
	m := NewMachine(DefaultConfig())
	okDelivered := false
	m.StartApp(2, "recv2", func(p *sim.Proc) {
		m.Nodes[2].AppBox.GetAny(p)
		okDelivered = true
	})
	m.StartApp(0, "send", func(p *sim.Proc) {
		m.Nodes[0].Send(p, 2, PortApp, "fine", 100)
		p.Sleep(sim.Second)
	})
	m.StartApp(5, "victim", func(p *sim.Proc) { p.Sleep(10 * sim.Second) })
	m.Eng.At(sim.Time(500*sim.Millisecond), func() { m.CrashNode(5) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !okDelivered {
		t.Fatal("surviving pair's message lost on unrelated node crash")
	}
	if m.Nodes[5].Alive {
		t.Fatal("crashed node still alive")
	}
}

// TestCrashDropsQueuedJobs: the daemon's job queue belongs to the node's
// incarnation. A crash while the first of two queued jobs runs kills that job
// and drops the second; the restarted node's fresh daemon runs only what is
// queued after the restart.
func TestCrashDropsQueuedJobs(t *testing.T) {
	m := NewMachine(DefaultConfig())
	n := m.Nodes[2]
	var ran []string
	job := func(name string, d sim.Duration) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			ran = append(ran, name+" started")
			p.Sleep(d)
			ran = append(ran, name+" done")
		}
	}
	m.StartDaemon(n.ID, "ckptd2", n.ServeJobs)
	n.Do(job("first", sim.Second))
	n.Do(job("second", sim.Millisecond))
	m.Eng.At(sim.Time(500*sim.Millisecond), func() { m.CrashNode(n.ID) })
	m.Eng.At(sim.Time(2*sim.Second), func() {
		n.Restart()
		m.StartDaemon(n.ID, "ckptd2", n.ServeJobs)
		n.Do(job("third", sim.Millisecond))
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"first started", "third started", "third done"}; !slices.Equal(ran, want) {
		t.Fatalf("jobs ran %q, want %q", ran, want)
	}
}

func TestComputeTimeAndMemCopyTime(t *testing.T) {
	m := NewMachine(DefaultConfig())
	if got := m.ComputeTime(1e7); got != sim.Second {
		t.Fatalf("ComputeTime(1e7) = %v", got)
	}
	if got := m.MemCopyTime(15_000_000); got != sim.Second {
		t.Fatalf("MemCopyTime(15MB) = %v", got)
	}
}
