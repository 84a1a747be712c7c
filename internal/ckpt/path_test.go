package ckpt

import (
	"fmt"
	"testing"
)

// TestPathsSpellTheirFormats holds the path builders to the fmt formats they
// replaced, byte for byte, on every opened scheme: the paths name durable
// files, so a changed spelling would move every storage key and every digest
// that hashes them.
func TestPathsSpellTheirFormats(t *testing.T) {
	nums := []int{0, 1, 7, 42, 99, 100, 999, 1000, 12345, 99999, 100000, 1 << 40, -1, -42, -12345}
	for _, e := range variants {
		v := e.v
		for _, rank := range nums {
			for _, index := range nums {
				slot := fmt.Sprintf("%sslot%d/", v.StorageRoot(), index%v.slots())
				want := fmt.Sprintf("%sn%03d/k%05d", v.StorageRoot(), rank, index)
				if v.Coordinated() {
					want = fmt.Sprintf("%ss%03d", slot, rank)
					if got, want := v.ChanPath(rank, index), fmt.Sprintf("%sc%03d", slot, rank); got != want {
						t.Errorf("%s: ChanPath(%d, %d) = %q, want %q", e.name, rank, index, got, want)
					}
				}
				if got := v.StatePath(rank, index); got != want {
					t.Errorf("%s: StatePath(%d, %d) = %q, want %q", e.name, rank, index, got, want)
				}
				if got := v.SlotDir(index); got != slot {
					t.Errorf("%s: SlotDir(%d) = %q, want %q", e.name, index, got, slot)
				}
			}
		}
	}
}

// TestAllocsPaths pins a path build to the one allocation of the string it
// returns.
func TestAllocsPaths(t *testing.T) {
	for _, v := range []Variant{CoordNB, CoordNBInc, Indep, CIC} {
		for name, build := range map[string]func() string{
			"StatePath": func() string { return v.StatePath(5, 123) },
			"ChanPath":  func() string { return v.ChanPath(5, 123) },
			"SlotDir":   func() string { return v.SlotDir(123) },
		} {
			if got := testing.AllocsPerRun(100, func() { _ = build() }); got != 1 {
				t.Errorf("%v: %s allocates %v times, want 1", v, name, got)
			}
		}
	}
}
