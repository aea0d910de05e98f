package sim

import (
	"testing"

	"maxwe/internal/attack"
	"maxwe/internal/device"
	"maxwe/internal/endurance"
	"maxwe/internal/spare"
	"maxwe/internal/xrand"
)

// TestSafeWritesIsLowerBound checks safeWrites against the exact bound,
// one less than the minimum remaining budget over the bound lines, on
// random cores and bindings. Remaining budgets are drawn around the early
// exit's edge: spent (<= 0), epochSize-1, epochSize, epochSize+1 and far
// above it. The result must never exceed the exact bound, clamped at 0
// because a spent line leaves no write safe but a count of writes cannot
// go below 0, and must equal it whenever the exact bound is at least
// epochSize, the only range in which the bound lets a full epoch run
// quiescent.
func TestSafeWritesIsLowerBound(t *testing.T) {
	src := xrand.New(7)
	edges := []int64{-3, 0, 1, epochSize - 1, epochSize, epochSize + 1, epochSize + 2, 5 * epochSize}
	exactHits := 0
	for trial := 0; trial < 5000; trial++ {
		lines := 1 + src.Intn(48)
		core := &device.Core{
			Writes:    make([]int64, lines),
			Endurance: make([]int64, lines),
			Worn:      make([]bool, lines),
		}
		for l := 0; l < lines; l++ {
			rem := edges[src.Intn(len(edges))]
			if src.Intn(4) == 0 {
				rem = int64(src.Intn(3*epochSize)) - 5
			}
			core.Endurance[l] = 6*epochSize + int64(src.Intn(epochSize))
			core.Writes[l] = core.Endurance[l] - rem
			core.Worn[l] = rem <= 0
		}
		// A binding maps every slot to some line; several slots may share
		// one, and some lines stay unbound.
		slotLine := make([]int32, 1+src.Intn(lines))
		for u := range slotLine {
			slotLine[u] = int32(src.Intn(lines))
		}
		lowest := int64(1)<<62 - 1
		for _, line := range slotLine {
			lowest = min(lowest, core.Endurance[line]-core.Writes[line])
		}
		exact := lowest - 1
		got := safeWrites(core, slotLine)
		if got < 0 || got > max(exact, 0) {
			t.Fatalf("trial %d: safeWrites %d outside [0, max(exact bound %d, 0)]", trial, got, exact)
		}
		if exact >= epochSize {
			exactHits++
			if got != exact {
				t.Fatalf("trial %d: safeWrites %d != exact bound %d >= epochSize", trial, got, exact)
			}
		}
	}
	if exactHits == 0 {
		t.Fatal("no trial had an exact bound of at least epochSize")
	}
}

// ---------------------------------------------------------------------------
// Unleveled cell benchmarks: two cells of the unleveled attack × scheme
// matrix at the experiments' default scale (512×32 lines, linear profile
// with q = 50 scaled to mean endurance 2000, 10% spares), so
// runBatchedDirect can be profiled from go test. random/max-we runs
// checkedEpoch on NextBatch addresses; uaa/pcd runs pcdEpoch with one Next
// per write. Each reports its cost per simulated user write.

func directCellProfile() *endurance.Profile {
	const mean, q = 2000.0, 50.0
	el := 2 * mean / (1 + q)
	return endurance.Linear(512, 32, el, el*q).ScaleToMean(mean).Shuffled(xrand.New(2))
}

func BenchmarkBatchedDirect(b *testing.B) {
	p := directCellProfile()
	cells := []struct {
		name  string
		build func() Config
	}{
		{"random/max-we", func() Config {
			return Config{Profile: p, Scheme: spare.NewMaxWE(p, spare.DefaultMaxWEOptions()),
				Attack: attack.NewRandomUniform(xrand.New(4))}
		}},
		{"uaa/pcd", func() Config {
			return Config{Profile: p, Scheme: spare.NewPCD(p.Lines(), p.Lines()-p.Lines()/10),
				Attack: attack.NewUAA()}
		}},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			var writes int64
			for i := 0; i < b.N; i++ {
				res, err := Run(c.build())
				if err != nil {
					b.Fatal(err)
				}
				writes += res.UserWrites
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(writes), "ns/write")
		})
	}
}
