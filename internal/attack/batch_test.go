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

var benchBatch = make([]int, 1024)

// BenchmarkBPANextBatch times one 1024-address epoch of the default BPA
// (16 victims, redrawn every 100k writes) over 16384 lines.
func BenchmarkBPANextBatch(b *testing.B) {
	a := DefaultBPA(xrand.New(1))
	for i := 0; i < b.N; i++ {
		a.NextBatch(16384, benchBatch)
	}
}
