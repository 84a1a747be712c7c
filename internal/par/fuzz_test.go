package par

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// storageFiles is how many files FuzzStorageCalls stores before its calls
// start; reads draw from them.
const storageFiles = 4

// fuzzCall is one storage call of a FuzzStorageCalls script.
type fuzzCall struct {
	node, proc, shard int
	read              bool
	file, size        int    // read: which stored file; write: how many bytes
	path              string // a read's stored file, or a write's own file
	deadline          sim.Duration
	gap               sim.Duration // sleep before the call

	returns int
	reply   storage.Reply
	elapsed sim.Duration
}

// parseStorageScript decodes a FuzzStorageCalls input: one header byte (the
// shard count, and how often the slowing fault hook pads the server queue),
// a padding-size byte, then four bytes per call: node, process and shard;
// read or write and its file or size; deadline; gap before the call.
func parseStorageScript(script []byte) (shards, padEvery, padBytes int, calls []*fuzzCall) {
	if len(script) < 2 {
		return 1, 0, 0, nil
	}
	shards, padEvery, padBytes = 1+int(script[0]&1), int(script[0]>>1&3), int(script[1])*1024
	for b := script[2:]; len(b) >= 4 && len(calls) < 48; b = b[4:] {
		c := &fuzzCall{
			node:     int(b[0] & 7),
			proc:     int(b[0]>>3) % 3,
			shard:    int(b[0]>>5) % shards,
			read:     b[1]&1 == 1,
			deadline: sim.Duration(b[2]) * 10 * sim.Millisecond,
			gap:      sim.Duration(b[3]) * 5 * sim.Millisecond,
		}
		if c.read {
			c.file = int(b[1]>>1) % storageFiles
			c.path = fmt.Sprintf("f%d", c.file)
		} else {
			c.size = int(b[1]>>1) * 1024
			c.path = fmt.Sprintf("w%d", len(calls))
		}
		calls = append(calls, c)
	}
	return shards, padEvery, padBytes, calls
}

// FuzzStorageCalls runs generated storage calls — several processes per
// node, on one or more nodes, each call with a drawn deadline — against
// servers a fault hook slows by queueing padding writes, and checks that
// every call returns exactly once, with its own reply or with ErrUnavailable
// at its deadline, and that the engine drains.
func FuzzStorageCalls(f *testing.F) {
	f.Add([]byte{2, 200, 3, 200, 5, 0, 3 | 8, 1, 5, 0, 3 | 16, 3, 0, 2})
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 4; i++ {
		script := make([]byte, 2+4*24)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		shards, padEvery, padBytes, calls := parseStorageScript(script)
		cfg := DefaultConfig()
		cfg.StorageServers = shards
		m := NewMachine(cfg)
		defer m.Shutdown()

		stored := make([][]byte, storageFiles)
		for i := range stored {
			stored[i] = bytes.Repeat([]byte{byte(i + 1)}, 100*(i+1))
			for _, s := range m.Stores {
				s.Submit(storage.Request{Op: storage.OpWrite, Path: fmt.Sprintf("f%d", i), Data: stored[i], Durable: true})
			}
		}
		if padEvery > 0 {
			for _, s := range m.Stores {
				seen := 0
				s.FaultHook = func(_ storage.Op, path string) error {
					if seen++; path != "pad" && seen%padEvery == 0 {
						s.Submit(storage.Request{Op: storage.OpWrite, Path: "pad", Data: make([]byte, padBytes)})
					}
					return nil
				}
			}
		}

		type key struct{ node, proc int }
		scripts := map[key][]*fuzzCall{}
		var order []key
		for _, c := range calls {
			k := key{c.node, c.proc}
			if scripts[k] == nil {
				order = append(order, k)
			}
			scripts[k] = append(scripts[k], c)
		}
		for _, k := range order {
			n, mine := m.Nodes[k.node], scripts[k]
			m.Eng.Spawn(fmt.Sprintf("n%d.p%d", k.node, k.proc), func(p *sim.Proc) {
				for _, c := range mine {
					p.Sleep(c.gap)
					req := storage.Request{Op: storage.OpRead, Path: c.path}
					if !c.read {
						req = storage.Request{Op: storage.OpWrite, Path: c.path, Data: make([]byte, c.size), Durable: true}
					}
					start := p.Now()
					c.reply = n.StorageCallTimeoutOn(p, c.shard, req, c.deadline)
					c.elapsed = p.Now().Sub(start)
					c.returns++
				}
			})
		}
		if err := m.Run(); err != nil {
			t.Fatalf("engine did not drain: %v", err)
		}

		send := cfg.Fabric.SendOverhead
		for i, c := range calls {
			switch {
			case c.returns != 1:
				t.Fatalf("call %d returned %d times", i, c.returns)
			case c.deadline > 0 && c.elapsed > send+c.deadline:
				t.Fatalf("call %d returned after %v, past its deadline %v", i, c.elapsed, c.deadline)
			case c.reply.Err != nil:
				if !errors.Is(c.reply.Err, storage.ErrUnavailable) || c.deadline == 0 || c.elapsed != send+c.deadline {
					t.Fatalf("call %d (deadline %v) failed after %v: %v", i, c.deadline, c.elapsed, c.reply.Err)
				}
			case c.read && !bytes.Equal(c.reply.Data, stored[c.file]):
				t.Fatalf("call %d read %d bytes of %s, want %d", i, len(c.reply.Data), c.path, len(stored[c.file]))
			case !c.read && (c.reply.Size != c.size || c.reply.Data != nil):
				t.Fatalf("call %d wrote %d bytes, reply %+v", i, c.size, c.reply)
			}
		}
	})
}
