package sim

import (
	"testing"

	"maxwe/internal/attack"
	"maxwe/internal/endurance"
	"maxwe/internal/faultinject"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
	"maxwe/internal/xrand"
)

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

// benchCell is one named simulation of a cell benchmark; build returns a
// fresh Config per iteration.
type benchCell struct {
	name  string
	build func() Config
}

// runBenchCells runs each cell as a sub-benchmark and reports its cost per
// simulated user write.
func runBenchCells(b *testing.B, cells []benchCell) {
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

func BenchmarkBatchedDirect(b *testing.B) {
	p := directCellProfile()
	runBenchCells(b, []benchCell{
		{"random/max-we", func() Config {
			return Config{Profile: p, Scheme: spare.NewMaxWE(p, spare.DefaultMaxWEOptions()),
				Attack: attack.NewRandomUniform(xrand.New(4))}
		}},
		{"uaa/pcd", func() Config {
			return Config{Profile: p, Scheme: spare.NewPCD(p.Lines(), p.Lines()-p.Lines()/10),
				Attack: attack.NewUAA()}
		}},
	})
}

// BenchmarkBatchedLeveled runs the leveled loop (runBatchedLeveled) on a
// Max-WE cell at the same default scale under attack.DefaultBPA, the
// Figure 7/8 workload: tlsr, pcm-s, bwl and wawl, the four randomized
// swap levelers, so all four run swapEpoch; pcm-s jitters its dwells, and
// bwl and wawl weight them by endurance (wawl its relocation targets
// too). Each reports its cost per simulated user write.
func BenchmarkBatchedLeveled(b *testing.B) {
	p := directCellProfile()
	metrics := func(sch spare.Scheme) []float64 { return spare.SlotMetrics(sch, p) }
	cell := func(name string, leveler func(sch spare.Scheme) wearlevel.Leveler) benchCell {
		return benchCell{name, func() Config {
			sch := spare.NewMaxWE(p, spare.DefaultMaxWEOptions())
			return Config{Profile: p, Scheme: sch, Leveler: leveler(sch), Attack: attack.DefaultBPA(xrand.New(5))}
		}}
	}
	runBenchCells(b, []benchCell{
		cell("tlsr", func(sch spare.Scheme) wearlevel.Leveler {
			return wearlevel.NewTLSR(sch.UserLines(), 32, xrand.New(3))
		}),
		cell("pcm-s", func(sch spare.Scheme) wearlevel.Leveler {
			return wearlevel.NewPCMS(sch.UserLines(), 32, xrand.New(3))
		}),
		cell("bwl", func(sch spare.Scheme) wearlevel.Leveler {
			return wearlevel.NewBWL(sch.UserLines(), metrics(sch), 32, xrand.New(3))
		}),
		cell("wawl", func(sch spare.Scheme) wearlevel.Leveler {
			return wearlevel.NewWAWL(sch.UserLines(), metrics(sch), 32, xrand.New(3))
		}),
	})
}

// BenchmarkPerWriteRoute measures the per-write route (generalEpoch
// driving a Stepper) on the two fault cells of the unleveled attack ×
// scheme matrix, built at the experiments' default scale as a maxwe
// System with seed 1 builds them: Max-WE under UAA with transient,
// stuck-at and metadata faults, and PS-random under BPA with stuck-at
// faults. Each reports its cost per simulated user write.
func BenchmarkPerWriteRoute(b *testing.B) {
	p := directCellProfile()
	spares := p.Lines() / 10
	cells := []struct {
		name   string
		faults faultinject.Config
		build  func() Config
	}{
		{"faults/uaa/max-we", faultinject.Config{Seed: 1, TransientProb: 0.01, StuckAtProb: 0.0005, MetadataProb: 0.0005},
			func() Config {
				return Config{Profile: p, Scheme: spare.NewMaxWE(p, spare.DefaultMaxWEOptions()), Attack: attack.NewUAA()}
			}},
		{"faults/bpa/ps-random", faultinject.Config{Seed: 2, StuckAtProb: 0.001},
			func() Config {
				return Config{Profile: p, Scheme: spare.NewPS(p, spares, spare.PSRandom, xrand.New(3)),
					Attack: attack.DefaultBPA(xrand.New(5))}
			}},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			var writes int64
			for i := 0; i < b.N; i++ {
				cfg := c.build()
				plan, err := faultinject.NewPlan(c.faults)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Faults = plan
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				writes += res.UserWrites
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(writes), "ns/write")
		})
	}
}
