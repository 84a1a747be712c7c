// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated processes are coroutines (iter.Pull), and the kernel enforces a
// strict one-runner-at-a-time discipline: at any instant either the engine loop
// or exactly one process is executing. Control moves by a direct coroutine
// switch — the engine calls a process's next, the process yields back when it
// parks — without a visit to the Go scheduler, so the simulation is fully
// deterministic: the same program produces the same event trace on every run,
// independent of GOMAXPROCS or scheduler behaviour.
//
// The invariant also means processes may freely read and mutate shared
// simulation state (mailboxes, resources, statistics) without locks, in the
// spirit of "share memory by communicating": the communication here is the
// engine handoff itself.
package sim

import "fmt"

// Time is an absolute virtual instant, in nanoseconds since the start of the
// simulation run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Seconds returns the instant as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds converts a floating-point number of seconds to a Duration.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// BytesAt returns the time needed to move n bytes at rate bytesPerSec.
func BytesAt(n int, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 {
		panic("sim: non-positive bandwidth")
	}
	return Duration(float64(n) / bytesPerSec * float64(Second))
}

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(d))
}

func (t Time) String() string { return Duration(t).String() }
