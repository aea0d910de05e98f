package sim

import (
	"testing"

	"maxwe/internal/attack"
	"maxwe/internal/endurance"
	"maxwe/internal/faultinject"
	"maxwe/internal/spare"
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
