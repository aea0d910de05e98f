package attack

import (
	"testing"

	"maxwe/internal/xrand"
)

// batchPair builds two identically-configured instances of every attack
// that implements BatchAttack, keyed by name.
func batchPair() map[string][2]BatchAttack {
	mk := func(seed uint64) []BatchAttack {
		return []BatchAttack{
			NewUAA(),
			NewPartialUAA(0.35),
			NewBPA(4, 17, xrand.New(seed)),
			NewTargetedSweep([]int{3, 3, 9, 41, 0}),
			NewRepeated(5),
			NewHotCold(64, 1.2, xrand.New(seed+1)),
			NewRandomUniform(xrand.New(seed + 2)),
		}
	}
	a, b := mk(99), mk(99)
	out := map[string][2]BatchAttack{}
	for i := range a {
		out[a[i].Name()] = [2]BatchAttack{a[i], b[i]}
	}
	return out
}

// NextBatch must be observationally identical to the same number of Next
// calls: same addresses, same state afterwards — across irregular batch
// sizes and a mid-stream logical-space shrink (PCD).
func TestNextBatchMatchesNext(t *testing.T) {
	sizes := []int{1, 7, 64, 3, 1000, 2, 129}
	for name, pair := range batchPair() {
		batched, perWrite := pair[0], pair[1]
		n := 64
		total := 0
		for round, sz := range sizes {
			if round == 4 {
				n = 41 // PCD-style shrink between batches
			}
			dst := make([]int, sz)
			batched.NextBatch(n, dst)
			for i, got := range dst {
				want := perWrite.Next(n)
				if got != want {
					t.Fatalf("%s: write %d (batch %d, elem %d): batched %d != per-write %d",
						name, total+i, round, i, got, want)
				}
				if got < 0 || got >= n {
					t.Fatalf("%s: address %d out of range [0,%d)", name, got, n)
				}
			}
			total += sz
		}
		// State equality: both streams must continue identically.
		for i := 0; i < 50; i++ {
			if g, w := batched.Next(n), perWrite.Next(n); g != w {
				t.Fatalf("%s: post-batch state diverged at write %d: %d != %d", name, i, g, w)
			}
		}
	}
}

// FuzzNextBatchMatchesNext is the fuzzed form of TestNextBatchMatchesNext:
// every batch attack, a logical space of n lines (n = 1 included), a first
// batch longer than 3n so the sweeps wrap several times within it, then a
// batch of any length (0 included) after a shrink of the space to n2 <= n,
// then one address at n again. The second, fourth and fifth seeds shrink
// the space below the sweep cursor (next >= n2), where UAA and PartialUAA
// must wrap to 0 before their first run; the fifth does it with an empty
// batch, which must leave the cursor where it was.
//
// Four BPAs cover the victim ring. The sixth seed keeps the space at
// n = 200 for 1400 + 2047 writes: both batches are longer than the ring
// of the 16- and 3-victim sets, the 3-victim set re-draws every 1000
// writes, a repick that divides neither batch length, so it re-draws
// mid-batch, and the 250-victim set is larger than the space (as is the
// 4-victim set under the seventh seed's n = 3).
func FuzzNextBatchMatchesNext(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(0), uint8(0), uint16(3))
	f.Add(uint64(2), uint8(63), uint16(8), uint8(4), uint16(17))
	f.Add(uint64(3), uint8(63), uint16(8), uint8(63), uint16(0))
	f.Add(uint64(4), uint8(199), uint16(900), uint8(9), uint16(1024))
	f.Add(uint64(5), uint8(63), uint16(8), uint8(4), uint16(0))
	f.Add(uint64(6), uint8(199), uint16(799), uint8(199), uint16(2047))
	f.Add(uint64(7), uint8(2), uint16(5), uint8(2), uint16(40))
	f.Fuzz(func(t *testing.T, seed uint64, n8 uint8, extra uint16, cut uint8, tail uint16) {
		n := int(n8)%200 + 1
		n2 := int(cut)%n + 1
		sizes := []int{3*n + 1 + int(extra)%(4*n), int(tail) % 2048, 1}
		spaces := []int{n, n2, n}
		mk := func() []BatchAttack {
			return []BatchAttack{
				NewUAA(),
				NewPartialUAA(0.35),
				NewPartialUAA(1),
				NewBPA(4, 17, xrand.New(seed)),
				NewBPA(16, 100_000, xrand.New(seed+3)),
				NewBPA(3, 1000, xrand.New(seed+4)),
				NewBPA(250, 1500, xrand.New(seed+5)),
				NewTargetedSweep([]int{3, 3, 9, 41, 0}),
				NewRepeated(5),
				NewHotCold(64, 1.2, xrand.New(seed+1)),
				NewRandomUniform(xrand.New(seed + 2)),
			}
		}
		batched, perWrite := mk(), mk()
		for k := range batched {
			for round, sz := range sizes {
				dst := make([]int, sz)
				batched[k].NextBatch(spaces[round], dst)
				for i, got := range dst {
					if want := perWrite[k].Next(spaces[round]); got != want {
						t.Fatalf("%s n=%d n2=%d: batch %d elem %d: batched %d != per-write %d",
							batched[k].Name(), n, n2, round, i, got, want)
					}
				}
			}
			for i := 0; i < 3*n; i++ {
				if g, w := batched[k].Next(n), perWrite[k].Next(n); g != w {
					t.Fatalf("%s n=%d n2=%d: post-batch state diverged at write %d: %d != %d",
						batched[k].Name(), n, n2, i, g, w)
				}
			}
		}
	})
}

var benchBatch = make([]int, 1024)

// BenchmarkUAANextBatch times one 1024-address epoch of UAA over 16384
// lines, the unleveled workload's most frequent batch.
func BenchmarkUAANextBatch(b *testing.B) {
	a := NewUAA()
	for i := 0; i < b.N; i++ {
		a.NextBatch(16384, benchBatch)
	}
}

// BenchmarkBPANextBatch times one 1024-address epoch of the default BPA
// (16 victims, redrawn every 100k writes) over 16384 lines.
func BenchmarkBPANextBatch(b *testing.B) {
	a := DefaultBPA(xrand.New(1))
	for i := 0; i < b.N; i++ {
		a.NextBatch(16384, benchBatch)
	}
}
