package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the cpu_share.* metrics: one per simulator package, two for
// the Go runtime split by what the simulator's design makes it do (goroutine
// handoff for every process switch; copying and collecting checkpoint
// bytes), and the rest.
var cpuBuckets = []string{"sim", "fabric", "storage", "codec", "par", "mp", "ckpt", "cic", "apps",
	"check", "rdg", "runtime_sched", "runtime_mem", "other"}

// A minimal reader of the pprof wire format (profile.proto, gzip-compressed
// protobuf): just the fields needed to attribute each sample's first value
// to its leaf function. Field numbers are from the format's definition.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

var errProto = errors.New("malformed profile")

// protoField is one decoded field: a varint value or a length-delimited body.
type protoField struct {
	num  int
	wire int
	val  uint64
	body []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// eachField calls fn for every field of a message.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, rest, err = readVarint(rest)
			if err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProto
			}
			rest = rest[8:]
		case 2:
			var n uint64
			n, rest, err = readVarint(rest)
			if err != nil || n > uint64(len(rest)) {
				return errProto
			}
			f.body, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errProto
			}
			rest = rest[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedVarints decodes a repeated integer field, packed or not.
func repeatedVarints(f protoField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.val), nil
	}
	b := f.body
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// flatByFunction returns, for a gzip-compressed CPU profile, the number of
// samples whose leaf frame is each function.
func flatByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> function id of its innermost line
		funcName = map[uint64]uint64{} // function id -> string table index
		table    []string
	)
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case profStringTable:
			table = append(table, string(f.body))
		case profSample:
			var s sample
			var locs, vals []uint64
			err := eachField(f.body, func(g protoField) (err error) {
				switch g.num {
				case sampleLocationID:
					locs, err = repeatedVarints(g, locs)
				case sampleValue:
					vals, err = repeatedVarints(g, vals)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				s.leaf, s.count = locs[0], int64(vals[0])
				samples = append(samples, s)
			}
		case profLocation:
			var id uint64
			fn, haveLine := uint64(0), false
			err := eachField(f.body, func(g protoField) error {
				switch g.num {
				case locationID:
					id = g.val
				case locationLine:
					if haveLine {
						return nil // later lines are the callers an inlined leaf was inlined into
					}
					haveLine = true
					return eachField(g.body, func(h protoField) error {
						if h.num == lineFunction {
							fn = h.val
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case profFunction:
			var id, name uint64
			err := eachField(f.body, func(g protoField) error {
				switch g.num {
				case functionID:
					id = g.val
				case functionName:
					name = g.val
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	flat := make(map[string]int64)
	for _, s := range samples {
		name := "?"
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(table)) {
			name = table[idx]
		}
		flat[name] += s.count
	}
	return flat, nil
}

// runtimeMem and runtimeSched are substrings of runtime function names that
// put a flat sample in the memory bucket (copying, allocating, collecting)
// or the scheduler bucket (goroutine handoff, channels, locks, stacks).
// Memory is tested first: "gcParkAssist" is collection, not scheduling, and
// the stack walkers (pcvalue, findfunc) run almost only for the collector,
// which has one stack per simulated process to scan.
var (
	runtimeMem = []string{"mem", "malloc", "alloc", "gc", "GC", "scan", "sweep", "mark", "span", "heap",
		"growslice", "greyobject", "wbBuf", "wbZero", "wbMove", "bulkBarrier", "mcache", "mcentral", "madvise",
		"sysUnused", "sysUsed", "sysMap", "nextFreeFast", "refill", "publicationBarrier", "pageIndexOf", "arena",
		"findObject", "typePointers", "Bits", "pcvalue", "findfunc", "unwinder", "traceback", "funcspdelta", "stackmap"}
	runtimeSched = []string{"sched", "findRunnable", "park", "ready", "chan", "lock", "futex", "wakep",
		"startm", "stopm", "mcall", "gogo", "runq", "note", "usleep", "osyield", "procyield", "pidle",
		"casgstatus", "execute", "selectgo", "sema", "netpoll", "stealWork", "checkTimers", "resetspinning",
		"injectglist", "goexit", "newproc", "gfget", "gfput", "malg", "acquirem", "releasem", "preempt",
		"morestack", "newstack", "copystack", "stackfree", "systemstack", "handoff", "mPark",
		"mstart", "dropg", "globrunq", "acquirep", "releasep", "recv", "send", "udog", "mget", "mput", "nanotime",
		"guintptr", "timers", "timeHistogram", "tgkill", "sigprof"}
)

// bucketOf maps a function's full name to its cpu_share bucket.
func bucketOf(fn string) string {
	pkg := fn
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, b := range cpuBuckets {
			if rest == b {
				return b
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg" {
		name := fn[len(pkg):]
		for _, s := range runtimeMem {
			if strings.Contains(name, s) {
				return "runtime_mem"
			}
		}
		for _, s := range runtimeSched {
			if strings.Contains(name, s) {
				return "runtime_sched"
			}
		}
	}
	return "other"
}

// cpuShares folds a flat profile into the share of samples per bucket.
func cpuShares(flat map[string]int64) map[string]float64 {
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total int64
	for _, n := range flat {
		total += n
	}
	if total == 0 {
		return shares
	}
	for fn, n := range flat {
		shares[bucketOf(fn)] += float64(n) / float64(total)
	}
	return shares
}
