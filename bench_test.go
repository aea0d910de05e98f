// bench_test.go times the paper's artifacts and the layers under them.
// BenchmarkFigN/BenchmarkTableX time one internal/artifacts entry each at
// artifacts.BenchSetup's scale without printing; `figures -quick` prints
// the same tables, and cmd/figures prints them at the full default scale.
package maxwe

import (
	"context"
	"runtime"
	"testing"

	"maxwe/internal/artifacts"
	"maxwe/internal/attack"
	"maxwe/internal/experiments"
	"maxwe/internal/memo"
	"maxwe/internal/runner"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
)

// benchArtifact times the artifact named id at BenchSetup's scale, its
// sweeps on one worker, and fails on an error or an incomplete sweep.
func benchArtifact(b *testing.B, id string) {
	a, ok := artifacts.Lookup(id)
	if !ok {
		b.Fatalf("no artifact %q", id)
	}
	s := artifacts.BenchSetup()
	for i := 0; i < b.N; i++ {
		out, err := a.Run(context.Background(), s, runner.Config{Parallelism: 1})
		if err != nil || out.Done != out.Total {
			b.Fatalf("artifact %s: %v (%d/%d sweep cells)", id, err, out.Done, out.Total)
		}
	}
}

// BenchmarkFig1IdealVsUAA times Figure 1 / Equations 3-5: the analytic
// UAA floor and a simulated unprotected run.
func BenchmarkFig1IdealVsUAA(b *testing.B) { benchArtifact(b, "1") }

// BenchmarkFig2RemapOverhead times the Figure 2 / §3.3.1 demonstration
// that remapping amplifies writes under UAA.
func BenchmarkFig2RemapOverhead(b *testing.B) { benchArtifact(b, "2") }

// BenchmarkFig5AnalyticSurface times Figure 5's closed-form surface.
func BenchmarkFig5AnalyticSurface(b *testing.B) { benchArtifact(b, "5") }

// BenchmarkFig6SparePercentUAA times Figure 6: Max-WE under UAA as the
// spare percentage sweeps 0..50%.
func BenchmarkFig6SparePercentUAA(b *testing.B) { benchArtifact(b, "6") }

// BenchmarkFig7SWRPercentBPA times Figure 7's 24-cell BPA sweep over the
// SWR share and the four wear levelers.
func BenchmarkFig7SWRPercentBPA(b *testing.B) { benchArtifact(b, "7") }

// BenchmarkFig8SpareSchemesBPA times Figure 8's 12-cell BPA sweep over
// the spare schemes and wear levelers.
func BenchmarkFig8SpareSchemesBPA(b *testing.B) { benchArtifact(b, "8") }

// BenchmarkTableUAALifetime times the §5.3.1 UAA lifetime table.
func BenchmarkTableUAALifetime(b *testing.B) { benchArtifact(b, "uaa") }

// BenchmarkTableMappingOverhead times the §5.3.2 mapping table overhead.
func BenchmarkTableMappingOverhead(b *testing.B) { benchArtifact(b, "overhead") }

// BenchmarkSimWritePath measures the raw per-write cost of the full
// simulation stack (attack -> leveler -> hybrid mapping -> device).
func BenchmarkSimWritePath(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Regions = 256
	cfg.LinesPerRegion = 16
	cfg.MeanEndurance = 1e9 // effectively unwearable: isolate the write path
	cfg.WearLeveling = "tlsr"
	cfg.Attack = "bpa"
	cfg.MaxUserWrites = int64(b.N)
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res := sys.RunLifetime()
	if res.UserWrites != int64(b.N) {
		b.Fatalf("served %d of %d writes", res.UserWrites, b.N)
	}
}

// benchRunnerSweep times one full Figure-8 sweep (12 independent BPA
// simulations) through the sweep supervisor at the given worker count.
// Results are bit-identical at every parallelism (a property test in
// internal/experiments); the benchmark measures only the wall-clock
// difference, which tracks GOMAXPROCS — on a single-core host the two
// variants coincide (as in PR 4's `make bench` run, recorded at
// gomaxprocs 1).
func benchRunnerSweep(b *testing.B, parallelism int) {
	s := experiments.QuickSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := runner.Run(context.Background(),
			runner.Config{Parallelism: parallelism}, experiments.Fig8Cells(s))
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Failed) != 0 {
			b.Fatalf("failed cells: %+v", rep.Failed)
		}
	}
}

// BenchmarkRunnerSequential runs the Fig 8 sweep on one worker
// (Parallelism 1).
func BenchmarkRunnerSequential(b *testing.B) { benchRunnerSweep(b, 1) }

// BenchmarkRunnerParallel runs the same sweep with one worker per CPU
// (Parallelism 0).
func BenchmarkRunnerParallel(b *testing.B) { benchRunnerSweep(b, 0) }

// BenchmarkRunnerScaling runs the sweep with exactly GOMAXPROCS workers.
// Run under `go test -cpu 1,2,4` it produces the multi-core scaling rows
// of `make bench` (the -N name suffixes parse into benchjson's "procs"
// field): the worker pool's measured speedup at 1, 2 and 4 procs on the
// recording host, rather than an assumed one. On a single-core host the
// entries coincide — that, too, is a measurement worth recording.
func BenchmarkRunnerScaling(b *testing.B) { benchRunnerSweep(b, runtime.GOMAXPROCS(0)) }

// benchMemoSweep runs the whole Fig7+Fig8 sweep (all SWR percentages,
// all substrates, all spare schemes) through the sweep supervisor against
// the given result cache.
func benchMemoSweep(b *testing.B, cache *memo.Cache) {
	s := artifacts.BenchSetup()
	cfg := runner.Config{Parallelism: 1, Cache: cache}
	if _, err := runner.Run(context.Background(), cfg, experiments.Fig7Cells(s, experiments.Fig7DefaultPercents(), experiments.WLNames())); err != nil {
		b.Fatal(err)
	}
	if _, err := runner.Run(context.Background(), cfg, experiments.Fig8Cells(s)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigSweepMemoCold times the full Fig7+Fig8 sweep against an
// empty result cache: every cell computes and is written through to disk.
// This is the baseline the warm benchmark's speedup is measured against
// (PR 9's `make bench` run: ~391 ms cold, ~0.18 ms warm).
func BenchmarkFigSweepMemoCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache, err := memo.Open(memo.Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchMemoSweep(b, cache)
	}
}

// BenchmarkFigSweepMemoWarm times the same whole-figure sweep against a
// pre-populated cache: every cell is a memo hit and no simulation runs.
// The cold/warm ratio is the headline of the content-addressed cache.
func BenchmarkFigSweepMemoWarm(b *testing.B) {
	cache, err := memo.Open(memo.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	benchMemoSweep(b, cache) // populate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMemoSweep(b, cache)
	}
}

// BenchmarkUAALifetime measures one uncancelable UAA lifetime of the
// default-scale Max-WE system on the batched direct loop.
func BenchmarkUAALifetime(b *testing.B) {
	s := artifacts.BenchSetup()
	p := s.Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch := spare.NewMaxWE(p, spare.DefaultMaxWEOptions())
		if _, err := sim.Run(sim.Config{Profile: p, Scheme: sch, Attack: attack.NewUAA()}); err != nil {
			b.Fatal(err)
		}
	}
}
