package codec

import "sync/atomic"

// Host-side byte counters for the perf layer. They are process-global and
// atomic because benchmark cells encode concurrently; they are gated on an
// armed flag so the unarmed cost of every encode/decode is a single relaxed
// atomic load. The counters measure completed streams: a Writer counts the
// length of its buffer the first time Bytes is read, a Reader counts its
// input when it is created. Virtual time is never touched, so arming them
// cannot perturb a simulation.
var (
	perfArmed atomic.Bool
	perfEnc   atomic.Int64
	perfDec   atomic.Int64
)

// ArmPerfCounters turns the encode/decode byte counters on. Arming is
// one-way for the life of the process: the perf layer samples deltas, so
// there is never a reason to disarm, and a one-way latch keeps concurrent
// samplers from flickering each other's counts off.
func ArmPerfCounters() { perfArmed.Store(true) }

// PerfCounters returns the total bytes encoded and decoded since arming.
// Callers sample it twice and subtract; the absolute values are meaningless
// across concurrent runs.
func PerfCounters() (enc, dec int64) {
	return perfEnc.Load(), perfDec.Load()
}

func countEncoded(n int) {
	if perfArmed.Load() {
		perfEnc.Add(int64(n))
	}
}

func countDecoded(n int) {
	if perfArmed.Load() {
		perfDec.Add(int64(n))
	}
}
