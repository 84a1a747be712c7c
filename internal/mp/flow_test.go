package mp

import (
	"testing"

	"repro/internal/par"
	"repro/internal/sim"
)

// TestFlowControlBlocksFloods: a sender must not get more than the window
// ahead of a slow consumer.
func TestFlowControlBlocksFloods(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	w := NewWorld(m)
	win := m.Cfg.MsgWindow
	maxAhead := 0
	sent, consumed := 0, 0
	w.Launch(0, &testProg{run: func(e *Env) {
		for i := 0; i < 40; i++ {
			e.Send(1, 1, make([]byte, 100))
			sent++
			if ahead := sent - consumed; ahead > maxAhead {
				maxAhead = ahead
			}
		}
	}})
	w.Launch(1, &testProg{run: func(e *Env) {
		for i := 0; i < 40; i++ {
			e.Compute(5e5) // slow consumer
			e.Recv(0, 1)
			consumed++
		}
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// "Ahead" can exceed the window by the messages already consumed-in-
	// flight, but must stay close to it, far below the flood size.
	if maxAhead > win+2 {
		t.Fatalf("sender got %d ahead of consumer (window %d)", maxAhead, win)
	}
}

// TestFlowControlWindowInvariant: outstanding never exceeds the window.
func TestFlowControlWindowInvariant(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	w := NewWorld(m)
	win := m.Cfg.MsgWindow
	violated := false
	check := func() {
		for s := range w.outstanding {
			for d, v := range w.outstanding[s] {
				if v > win || v < 0 {
					violated = true
					_ = d
				}
			}
		}
	}
	for r := 0; r < m.NumNodes(); r++ {
		w.Launch(r, &testProg{run: func(e *Env) {
			right := (e.Rank + 1) % e.Size()
			left := (e.Rank + e.Size() - 1) % e.Size()
			for i := 0; i < 25; i++ {
				e.Send(right, 1, make([]byte, 64))
				check()
				e.Recv(left, 1)
				check()
			}
		}})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if violated {
		t.Fatal("outstanding counter escaped [0, window]")
	}
}

// TestBlockedSendIsSafePoint: a checkpoint action posted while the sender is
// credit-blocked must run (the blocked send is a safe point).
func TestBlockedSendIsSafePoint(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	w := NewWorld(m)
	rec := &actionRecorder{}
	w.Launch(0, &testProg{run: func(e *Env) {
		for i := 0; i < 20; i++ {
			e.Send(1, 1, make([]byte, 100)) // blocks at window; rank 1 consumes at t=5s
		}
	}})
	w.Launch(1, &testProg{run: func(e *Env) {
		e.P.Sleep(5 * sim.Second)
		for i := 0; i < 20; i++ {
			e.Recv(0, 1)
		}
	}})
	m.Eng.At(sim.Time(2*sim.Second), func() { m.Nodes[0].PostAction(rec) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.ranAt < sim.Time(2*sim.Second) || rec.ranAt > sim.Time(2*sim.Second+10*sim.Millisecond) {
		t.Fatalf("action ran at %v, want ≈2s (during blocked send)", rec.ranAt)
	}
}
