package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestShutdownReleasesGoroutines: every process owns a goroutine (the
// coroutine iter.Pull made for it) until its body returns. Shutdown must end
// the ones a finished run leaves behind — daemons parked forever, processes
// spawned and never activated — and each is gone by the time Shutdown returns.
// The counts are compared as bounds, not for equality, because the previous
// test's runner goroutine may still be on its way out when this one starts.
func TestShutdownReleasesGoroutines(t *testing.T) {
	const daemons, unstarted = 1000, 50
	baseline := runtime.NumGoroutine()
	e := New()
	forever := NewGate(e)
	unwound, started := 0, 0
	for i := 0; i < daemons; i++ {
		e.Spawn("daemon", func(p *Proc) {
			defer func() { unwound++ }()
			forever.Wait(p)
		}).SetDaemon(true)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < unstarted; i++ {
		e.Spawn("unstarted", func(p *Proc) { started++ })
	}
	if n := runtime.NumGoroutine(); n < daemons+unstarted {
		t.Fatalf("%d goroutines with %d live processes", n, len(e.procs))
	}
	e.Shutdown()
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after Shutdown, %d before the engine existed", n, baseline)
	}
	if unwound != daemons || started != 0 || len(e.procs) != 0 {
		t.Fatalf("unwound %d daemons (want %d), ran %d unstarted bodies (want 0), %d live", unwound, daemons, started, len(e.procs))
	}
	e.Shutdown() // a second call finds nothing to do
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after a second Shutdown, %d before the engine existed", n, baseline)
	}
}

// TestProcGoexitEndsRun pins what Spawn's comment promises: runtime.Goexit in
// a process body — which is what t.Fatal there amounts to — ends the goroutine
// that called Run, deferred calls and all, instead of ending the process
// quietly while Run carries on.
func TestProcGoexitEndsRun(t *testing.T) {
	var (
		e                          = New()
		quitter                    *Proc
		deferred, returned, outran bool
	)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		defer e.Shutdown()
		defer func() { deferred = true }()
		quitter = e.Spawn("quitter", func(p *Proc) {
			p.Sleep(Second)
			runtime.Goexit()
		})
		e.Spawn("bystander", func(p *Proc) {
			p.Sleep(2 * Second)
			outran = true
		})
		_ = e.Run() // does not return
		returned = true
	}()
	<-finished
	if returned || outran || !deferred {
		t.Fatalf("Run returned: %v, simulation ran on: %v, caller's defers ran: %v; want false, false, true", returned, outran, deferred)
	}
	if !quitter.Done() || len(e.procs) != 0 {
		t.Fatalf("quitter done: %v, %d live processes after Shutdown; want true, 0", quitter.Done(), len(e.procs))
	}
}

// TestSpawnAndKillFromProcess has processes create and kill each other while
// they run: a parent spawns a child that parks and a child it kills before its
// first activation, the first child's sibling kills it while it is parked, and
// the last one standing kills the parent. Every step reads or writes log, so
// under -race this is also the check that a coroutine switch orders memory the
// way the channel handoff did.
func TestSpawnAndKillFromProcess(t *testing.T) {
	e := New()
	defer e.Shutdown()
	var log []string
	say := func(s string) { log = append(log, s) }
	inbox := NewMailbox[int](e)
	parent := e.Spawn("parent", func(p *Proc) {
		defer say("parent unwound")
		waiter := e.Spawn("waiter", func(c *Proc) {
			defer say("waiter unwound")
			say("waiter parks")
			inbox.GetAny(c)
			say("waiter resumed")
		})
		e.Spawn("stillborn", func(c *Proc) { say("stillborn ran") }).Kill()
		e.Spawn("killer", func(c *Proc) {
			c.Sleep(Second)
			say("killer kills waiter")
			waiter.Kill()
			say("killer goes on") // Kill of another process does not switch to it
			c.Sleep(Second)
			say("killer kills parent")
			p.Kill()
		})
		say("parent parks")
		p.Sleep(60 * Second)
		say("parent resumed")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"parent parks", "waiter parks",
		"killer kills waiter", "killer goes on", "waiter unwound",
		"killer kills parent", "parent unwound",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log:\n %q\nwant:\n %q", log, want)
	}
	if !parent.Done() || len(e.procs) != 0 || e.Now() != Time(60*Second) {
		// The parent's own timer still fires at one minute, stale.
		t.Fatalf("parent done: %v, %d live, clock %v; want true, 0, 1m", parent.Done(), len(e.procs), e.Now())
	}
}

// TestProcPanicErrorCarriesProcStack: the stack in the error Run returns for a
// panicking process is the process's own — taken on its coroutine, where the
// frames that panicked are — and not the engine loop's.
func TestProcPanicErrorCarriesProcStack(t *testing.T) {
	e := New()
	defer e.Shutdown()
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(Second)
		panickingHelper()
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil for a panicking process")
	}
	for _, want := range []string{`process "boom" panicked: kaput`, "panickingHelper"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not mention %q:\n%v", want, err)
		}
	}
}

//go:noinline
func panickingHelper() { panic("kaput") }
