package perf

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRegisterFlags pins the shared flag surface every command exposes.
func TestRegisterFlags(t *testing.T) {
	var p Profile
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	p.RegisterFlags(fs)
	for _, name := range []string{"cpuprofile", "memprofile", "pprof"} {
		if fs.Lookup(name) == nil {
			t.Fatalf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse([]string{"-cpuprofile", "c.out", "-memprofile", "m.out", "-pprof", ":0"}); err != nil {
		t.Fatal(err)
	}
	if p.CPUFile != "c.out" || p.MemFile != "m.out" || p.PprofAddr != ":0" {
		t.Fatalf("flags not bound: %+v", p)
	}
}

// TestProfileFiles arms the CPU and heap profile paths end to end: both
// files must exist and be non-empty after Stop, and a second Stop must be a
// harmless no-op (Stop sits in a defer on every command's exit path).
func TestProfileFiles(t *testing.T) {
	dir := t.TempDir()
	p := Profile{CPUFile: filepath.Join(dir, "cpu.out"), MemFile: filepath.Join(dir, "mem.out")}
	var diag strings.Builder
	if err := p.Start(&diag); err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	for _, f := range []string{"cpu.out", "mem.out"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
	}
}

// TestProfileServerReaped is the leak proof for the live pprof server: after
// serving a real request, Stop must tear down the listener and the accept
// goroutine so a command exits goroutine-clean. Skipped where the sandbox
// forbids listening.
func TestProfileServerReaped(t *testing.T) {
	before := runtime.NumGoroutine()

	p := Profile{PprofAddr: "127.0.0.1:0"}
	var diag strings.Builder
	if err := p.Start(&diag); err != nil {
		t.Skipf("cannot listen in this environment: %v", err)
	}
	if p.addr == nil || !strings.Contains(diag.String(), p.addr.String()) {
		t.Fatalf("resolved address %v not announced in %q", p.addr, diag.String())
	}
	addr := p.addr.String()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d body %q", resp.StatusCode, body)
	}
	// The keep-alive client connection parks server goroutines; release it
	// before counting.
	http.DefaultClient.CloseIdleConnections()

	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if p.addr != nil {
		t.Fatalf("addr = %v after Stop, want nil", p.addr)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr)); err == nil {
		t.Fatal("server still accepting after Stop")
	}
	http.DefaultClient.CloseIdleConnections()

	// The accept goroutine and every connection handler must be gone. Allow
	// the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after Stop", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
