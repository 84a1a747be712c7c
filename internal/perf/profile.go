package perf

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rpprof "runtime/pprof"
)

// Profile bundles the host-profiling flags shared by every command
// (chkbench, chkcheck, chksim), so any run — the
// 1008-cell `chkcheck -full`, an E12 sweep, a single chksim cell — can be
// profiled without code changes:
//
//	-cpuprofile FILE   pprof CPU profile of the whole invocation
//	-memprofile FILE   pprof heap profile written at exit (after a final GC)
//	-pprof ADDR        live net/http/pprof server for the run's duration
//
// Usage: RegisterFlags on the command's FlagSet, Start after parsing, Stop
// (idempotent, usually deferred) before exit. Stop shuts the pprof server's
// listener and accept goroutine down and waits for them, so commands exit
// goroutine-clean (pinned by TestProfileServerReaped).
type Profile struct {
	CPUFile   string
	MemFile   string
	PprofAddr string

	cpuOut *os.File
	srv    *http.Server
	done   chan struct{}
	addr   net.Addr
}

// RegisterFlags installs the three shared profiling flags on fs.
func (p *Profile) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUFile, "cpuprofile", "", "write a pprof CPU profile of this run to `file`")
	fs.StringVar(&p.MemFile, "memprofile", "", "write a pprof heap profile to `file` on exit")
	fs.StringVar(&p.PprofAddr, "pprof", "", "serve net/http/pprof on `addr` (e.g. localhost:6060) while the run executes")
}

// Addr returns the pprof server's bound address ("" when not serving) — the
// resolved form of PprofAddr, useful with ":0".
func (p *Profile) Addr() string {
	if p.addr == nil {
		return ""
	}
	return p.addr.String()
}

// Start arms whatever the flags selected. A diagnostic naming the pprof URL
// goes to errw (stdout stays reserved for results). On error, anything
// already armed is stopped again.
func (p *Profile) Start(errw io.Writer) error {
	if p.CPUFile != "" {
		f, err := os.Create(p.CPUFile)
		if err != nil {
			return err
		}
		if err := rpprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("start CPU profile: %w", err)
		}
		p.cpuOut = f
	}
	if p.PprofAddr != "" {
		ln, err := net.Listen("tcp", p.PprofAddr)
		if err != nil {
			p.Stop()
			return fmt.Errorf("pprof server: %w", err)
		}
		// A private mux: importing net/http/pprof for its handlers without
		// registering anything on http.DefaultServeMux.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		p.srv = &http.Server{Handler: mux}
		p.addr = ln.Addr()
		p.done = make(chan struct{})
		go func() {
			defer close(p.done)
			p.srv.Serve(ln) // returns on Close
		}()
		fmt.Fprintf(errw, "pprof: serving on http://%s/debug/pprof/\n", p.addr)
	}
	return nil
}

// Stop tears down everything Start armed: it stops the CPU profile, shuts
// the pprof server down and waits for its accept goroutine, and writes the
// heap profile after a final GC so the live set is what's reported. It is
// idempotent; the first error wins.
func (p *Profile) Stop() error {
	var first error
	if p.cpuOut != nil {
		rpprof.StopCPUProfile()
		if err := p.cpuOut.Close(); err != nil && first == nil {
			first = err
		}
		p.cpuOut = nil
	}
	if p.srv != nil {
		if err := p.srv.Close(); err != nil && first == nil {
			first = err
		}
		<-p.done
		p.srv = nil
		p.addr = nil
	}
	if p.MemFile != "" {
		f, err := os.Create(p.MemFile)
		if err != nil {
			if first == nil {
				first = err
			}
		} else {
			runtime.GC() // materialize the final live set
			if err := rpprof.WriteHeapProfile(f); err != nil && first == nil {
				first = fmt.Errorf("write heap profile: %w", err)
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		p.MemFile = "" // idempotence: don't rewrite on a second Stop
	}
	return first
}
