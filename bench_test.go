// bench_test.go regenerates every table and figure of the paper's
// evaluation. Each BenchmarkFigN/BenchmarkTableX prints the corresponding
// rows/series once (so `go test -bench=.` doubles as the reproduction
// driver) and then times the underlying experiment.
//
// Committed reference numbers live in EXPERIMENTS.md; cmd/figures prints
// the same rows at the full default scale.
package maxwe

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"maxwe/internal/analytic"
	"maxwe/internal/attack"
	"maxwe/internal/buffer"
	"maxwe/internal/detect"
	"maxwe/internal/encoding"
	"maxwe/internal/endurance"
	"maxwe/internal/experiments"
	"maxwe/internal/mapping"
	"maxwe/internal/memo"
	"maxwe/internal/perfmodel"
	"maxwe/internal/report"
	"maxwe/internal/runner"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
	"maxwe/internal/xrand"
)

// benchSetup is the experiment scale used by the benchmarks: large enough
// for stable orderings, small enough that the whole suite runs in about a
// minute on one core. cmd/figures uses the full DefaultSetup.
func benchSetup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.Regions = 256
	s.LinesPerRegion = 16
	s.MeanEndurance = 1000
	return s
}

// onceEach guards the one-time printing of each figure's rows.
var onceEach sync.Map

func printOnce(key string, f func()) {
	once, _ := onceEach.LoadOrStore(key, &sync.Once{})
	once.(*sync.Once).Do(f)
}

// BenchmarkFig1IdealVsUAA regenerates Figure 1 / Equations 3-5: the
// endurance-distribution diagonal, the ideal-lifetime area and the UAA
// floor, cross-checked against a simulated unprotected run.
func BenchmarkFig1IdealVsUAA(b *testing.B) {
	s := benchSetup()
	run := func() (analytic.Params, float64) {
		par := analytic.FromPQ(float64(s.Regions*s.LinesPerRegion), 0, s.VariationQ)
		p := s.Profile()
		res, err := sim.Run(sim.Config{
			Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return par, res.NormalizedLifetime
	}
	par, simulated := run()
	printOnce("fig1", func() {
		t := report.NewTable("Figure 1 — ideal vs UAA lifetime (linear model, q=50)",
			"quantity", "value")
		t.AddRow("analytic L_UAA/L_ideal (Eq 5)", par.UAARatio())
		t.AddRow("simulated normalized lifetime under UAA", simulated)
		series := par.Fig1Series(5)
		for _, pt := range series {
			t.AddRow(fmt.Sprintf("endurance at rank %.2f", pt.LineRank), pt.Endurance)
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkFig2RemapOverhead regenerates the Figure 2 / Section 3.3.1
// demonstration: remapping schemes amplify writes and shorten lifetime
// under UAA.
func BenchmarkFig2RemapOverhead(b *testing.B) {
	s := benchSetup()
	s.Psi = 4
	r := experiments.Fig2(s)
	printOnce("fig2", func() {
		t := report.NewTable("Figure 2 / §3.3.1 — remapping aggravates wear under UAA",
			"configuration", "write amplification", "normalized lifetime")
		t.AddRow("no wear leveling", r.PlainAmplification, r.PlainLifetime)
		t.AddRow("tlsr remapping", r.LeveledAmplification, r.LeveledLifetime)
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig2(s)
	}
}

// BenchmarkSec21EnduranceVariation regenerates the Section 2.1
// characterization: the truncated power-law endurance model's realized
// variation across a 512-domain device.
func BenchmarkSec21EnduranceVariation(b *testing.B) {
	sample := func() *endurance.Profile {
		m := endurance.DefaultModel()
		return m.Sample(512, 8, xrand.New(1))
	}
	p := sample()
	printOnce("sec21", func() {
		t := report.NewTable("§2.1 — endurance variation (Eq 1-2, 512 domains, µ=0.3mA σ=0.033)",
			"quantity", "value")
		t.AddRow("strongest/weakest line ratio", p.Ratio())
		t.AddRow("weakest line endurance", p.Min())
		t.AddRow("strongest line endurance", p.Max())
		t.AddRow("mean line endurance", p.Mean())
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample()
	}
}

// BenchmarkFig5AnalyticSurface regenerates Figure 5: the closed-form
// lifetime surface of Max-WE vs PCD/PS vs PS-worst over p and q.
func BenchmarkFig5AnalyticSurface(b *testing.B) {
	surface := analytic.Fig5Surface(0.1, 0.3, 5, 10, 100, 10)
	printOnce("fig5", func() {
		t := report.NewTable("Figure 5 — analytic lifetime surface (normalized to ideal)",
			"p", "q", "max-we", "pcd/ps", "ps-worst")
		for _, pt := range surface {
			// Print the paper's headline column and the corners.
			if pt.Q == 50 || pt.Q == 10 || pt.Q == 100 {
				t.AddRow(pt.P, pt.Q, pt.MaxWE, pt.PCDPS, pt.PSWorst)
			}
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analytic.Fig5Surface(0.1, 0.3, 5, 10, 100, 10)
	}
}

// BenchmarkFig6SparePercentUAA regenerates Figure 6: Max-WE lifetime
// under UAA as the spare-line percentage sweeps 0..50%.
func BenchmarkFig6SparePercentUAA(b *testing.B) {
	s := benchSetup()
	percents := []int{0, 1, 10, 20, 30, 40, 50}
	rows := experiments.Fig6(s, percents)
	printOnce("fig6", func() {
		labels := make([]string, len(rows))
		values := make([]float64, len(rows))
		for i, r := range rows {
			labels[i] = fmt.Sprintf("%2d%% spares", r.SparePercent)
			values[i] = r.Normalized
		}
		fmt.Print(report.BarChart(
			"Figure 6 — normalized lifetime under UAA vs spare-line percentage",
			labels, values, 40))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig6(s, percents)
	}
}

// BenchmarkFig7SWRPercentBPA regenerates Figure 7: lifetime under BPA as
// the SWR share of the spare capacity sweeps 0..100%, per wear-leveling
// substrate.
func BenchmarkFig7SWRPercentBPA(b *testing.B) {
	s := benchSetup()
	percents := []int{0, 20, 60, 80, 90, 100}
	rows := benchFig7(b, s, percents)
	printOnce("fig7", func() { _, _ = experiments.Fig7Table(rows).WriteTo(os.Stdout) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFig7(b, s, percents)
	}
}

// BenchmarkFig8SpareSchemesBPA regenerates Figure 8: Max-WE vs PCD/PS vs
// PS-worst under BPA across the four wear-leveling substrates, with the
// geometric-mean group.
func BenchmarkFig8SpareSchemesBPA(b *testing.B) {
	s := benchSetup()
	rows, gmeans := benchFig8(b, s)
	printOnce("fig8", func() { _, _ = experiments.Fig8Table(rows, gmeans).WriteTo(os.Stdout) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFig8(b, s)
	}
}

// benchFig7 runs the Figure 7 sweep with one worker and fails b on any
// runner error or failed cell.
func benchFig7(b *testing.B, s experiments.Setup, percents []int) []experiments.Fig7Row {
	rows, rep, err := experiments.Fig7Sweep(context.Background(), runner.Config{Parallelism: 1},
		s, percents, experiments.WLNames())
	if err != nil || len(rep.Failed) != 0 {
		b.Fatalf("fig7 sweep: %v %+v", err, rep.Failed)
	}
	return rows
}

// benchFig8 is benchFig7 for the Figure 8 sweep.
func benchFig8(b *testing.B, s experiments.Setup) ([]experiments.Fig8Row, map[string]float64) {
	rows, gmeans, rep, err := experiments.Fig8Sweep(context.Background(), runner.Config{Parallelism: 1}, s)
	if err != nil || len(rep.Failed) != 0 {
		b.Fatalf("fig8 sweep: %v %+v", err, rep.Failed)
	}
	return rows, gmeans
}

// BenchmarkTableUAALifetime regenerates the Section 5.3.1 text table:
// normalized lifetime and improvement factors under UAA at 10% spares.
func BenchmarkTableUAALifetime(b *testing.B) {
	s := benchSetup()
	rows := experiments.TableUAA(s)
	printOnce("tableuaa", func() {
		t := report.NewTable("§5.3.1 — lifetime under UAA (10% spares)",
			"scheme", "normalized lifetime", "improvement")
		for _, r := range rows {
			t.AddRow(r.Scheme, r.Normalized, fmt.Sprintf("%.1fX", r.ImprovementX))
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.TableUAA(s)
	}
}

// BenchmarkTableMappingOverhead regenerates the Section 5.3.2 overhead
// comparison: the hybrid table vs a flat line-level table on the paper's
// 1 GB geometry.
func BenchmarkTableMappingOverhead(b *testing.B) {
	o := mapping.PaperOverhead()
	printOnce("overhead", func() {
		t := report.NewTable("§5.3.2 — mapping table overhead (1 GB, 2048 regions, 10% spares, 90% SWRs)",
			"table", "size (MB)")
		t.AddRow("Max-WE hybrid (LMT+RMT+tags)", mapping.BitsToMB(o.TotalBits()))
		t.AddRow("  of which LMT", mapping.BitsToMB(o.LMTBits()))
		t.AddRow("  of which RMT", mapping.BitsToMB(o.RMTBits()))
		t.AddRow("  of which wear-out tags", mapping.BitsToMB(o.TagBits()))
		t.AddRow("traditional line-level", mapping.BitsToMB(o.TraditionalBits()))
		t.AddRow("reduction", fmt.Sprintf("%.1f%%", o.Reduction()*100))
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.TotalBits()
		_ = o.TraditionalBits()
	}
}

// BenchmarkSec332Vulnerabilities regenerates the Section 3.3.2
// demonstrations: the DRAM buffer is useless against UAA, and adversarial
// data patterns strip Flip-N-Write of its benefit.
func BenchmarkSec332Vulnerabilities(b *testing.B) {
	run := func() (hotRate, uaaRate, fnwRandom, fnwAdv float64) {
		const memLines = 4096
		hot := buffer.New(32, 8)
		z := xrand.NewZipf(memLines, 1.2)
		src := xrand.New(3)
		for i := 0; i < 50000; i++ {
			hot.Write(z.Draw(src))
		}
		uaa := buffer.New(32, 8)
		for i := 0; i < 50000; i++ {
			uaa.Write(i % memLines)
		}
		// Flip-N-Write: expected random-update cost vs the paper's
		// adversarial 0x0000/0x5555 pattern (32-bit words).
		const width = 32
		adv := encoding.NewFNW(width, 0)
		a, bb := encoding.AdversarialPair(width)
		total := 0
		const writes = 1000
		for i := 0; i < writes; i++ {
			if i%2 == 0 {
				total += adv.Write(bb)
			} else {
				total += adv.Write(a)
			}
		}
		return hot.HitRate(), uaa.HitRate(),
			encoding.AverageRandomCost(width), float64(total) / writes
	}
	hotRate, uaaRate, fnwRandom, fnwAdv := run()
	printOnce("sec332", func() {
		t := report.NewTable("§3.3.2 — buffer and write-reduction vulnerabilities",
			"quantity", "value")
		t.AddRow("DRAM buffer hit rate, Zipf workload", hotRate)
		t.AddRow("DRAM buffer hit rate, UAA", uaaRate)
		t.AddRow("Flip-N-Write bit-cost, random data (32-bit)", fnwRandom)
		t.AddRow("Flip-N-Write bit-cost, adversarial pattern", fnwAdv)
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkAblationStrategies quantifies the contribution of each Max-WE
// design choice (DESIGN.md §4) under UAA.
func BenchmarkAblationStrategies(b *testing.B) {
	s := benchSetup()
	rows := experiments.Ablations(s)
	printOnce("ablations", func() {
		t := report.NewTable("Ablations — Max-WE design strategies under UAA (10% spares)",
			"variant", "normalized lifetime")
		for _, r := range rows {
			t.AddRow(r.Variant, r.Normalized)
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Ablations(s)
	}
}

// BenchmarkExtECPSalvaging runs the Section 2.2.2 extension study:
// per-line ECP correction vs (and combined with) Max-WE under UAA.
// Lifetimes are normalized to the nominal (pre-ECP) ideal lifetime.
func BenchmarkExtECPSalvaging(b *testing.B) {
	s := benchSetup()
	ks := []int{0, 1, 2, 4, 6}
	rows := experiments.ECPStudy(s, ks)
	printOnce("ecp", func() {
		t := report.NewTable("Extension — ECP salvaging vs spare-line replacement under UAA",
			"ECP k", "capacity overhead", "ECP only", "ECP + Max-WE")
		for _, r := range rows {
			t.AddRow(r.K, fmt.Sprintf("%.1f%%", r.CapacityOverhead*100), r.ECPOnly, r.ECPPlusMaxWE)
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.ECPStudy(s, ks)
	}
}

// BenchmarkExtAttackCoverage runs the Section 3.2 extension study: how
// much of the UAA effect survives when the attacker can only reach part
// of physical memory.
func BenchmarkExtAttackCoverage(b *testing.B) {
	s := benchSetup()
	coverages := []float64{0.25, 0.5, 0.75, 0.95, 1.0}
	rows := experiments.CoverageStudy(s, coverages)
	printOnce("coverage", func() {
		t := report.NewTable("Extension — UAA effectiveness vs reachable memory fraction (§3.2)",
			"coverage", "unprotected", "max-we")
		for _, r := range rows {
			t.AddRow(fmt.Sprintf("%.0f%%", r.Coverage*100), r.Unprotected, r.MaxWE)
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.CoverageStudy(s, coverages)
	}
}

// BenchmarkExtSalvagingComparison runs the Section 2.2.2 extension
// study: cell-level capacity retention under UAA wear for line-kill,
// ECP-6, PAYG (same total budget) and DRM.
func BenchmarkExtSalvagingComparison(b *testing.B) {
	s := benchSetup()
	rows := experiments.SalvageStudy(s)
	printOnce("salvage", func() {
		t := report.NewTable("Extension — salvaging baselines: UAA rounds to 10% capacity loss",
			"policy", "rounds / mean endurance")
		for _, r := range rows {
			t.AddRow(r.Policy, r.RoundsTo90)
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.SalvageStudy(s)
	}
}

// BenchmarkExtTLSRModelCheck cross-checks the behavioural TLSR model
// against the faithful two-level Security Refresh implementation.
func BenchmarkExtTLSRModelCheck(b *testing.B) {
	s := benchSetup() // 256x16 = 4096 lines: a power of two
	r := experiments.TLSRModelCheck(s)
	printOnce("tlsrcheck", func() {
		t := report.NewTable("Extension — behavioural TLSR model vs exact Security Refresh (BPA wear spread)",
			"implementation", "per-line wear CV", "write amplification")
		t.AddRow("behavioural swap model", r.BehavioralSpreadCV, r.BehavioralAmp)
		t.AddRow("two-level security refresh (exact)", r.ExactSpreadCV, r.ExactAmp)
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.TLSRModelCheck(s)
	}
}

// BenchmarkExtWLZoo runs the birthday-paradox attack against Max-WE over
// every implemented wear-leveling substrate — the superset of the paper's
// four-substrate comparison.
func BenchmarkExtWLZoo(b *testing.B) {
	s := benchSetup()
	rows := experiments.WLZoo(s)
	printOnce("zoo", func() {
		t := report.NewTable("Extension — all wear-leveling substrates under BPA (Max-WE, 10% spares)",
			"wear leveling", "normalized lifetime", "amplification")
		for _, r := range rows {
			t.AddRow(r.WL, r.Normalized, r.Amplification)
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.WLZoo(s)
	}
}

// BenchmarkExtRobustness re-runs the headline §5.3.1 Max-WE improvement
// across independent seeds and prints mean ± stddev, demonstrating the
// committed single-seed numbers are not cherry-picked.
func BenchmarkExtRobustness(b *testing.B) {
	s := benchSetup()
	const seeds = 5
	metric := func(run experiments.Setup) float64 {
		rows := experiments.TableUAA(run)
		var base, mw float64
		for _, r := range rows {
			switch r.Scheme {
			case "none":
				base = r.Normalized
			case "max-we":
				mw = r.Normalized
			}
		}
		return mw / base
	}
	mean, sd := experiments.SeedSweep(s, seeds, metric)
	printOnce("robustness", func() {
		t := report.NewTable("Extension — Max-WE UAA improvement across seeds",
			"quantity", "value")
		t.AddRow(fmt.Sprintf("improvement over unprotected (%d seeds)", seeds),
			fmt.Sprintf("%.2fX ± %.2f", mean, sd))
		t.AddRow("paper's reported improvement", "9.5X")
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.SeedSweep(s, seeds, metric)
	}
}

// BenchmarkExtWriteLatency evaluates the §4.1 latency argument: per-write
// latency of the Max-WE hybrid mapping vs a flat line-level table, using
// measured amplification and the §4.4 table sizes.
func BenchmarkExtWriteLatency(b *testing.B) {
	s := benchSetup()
	run := func() (hybrid, flat perfmodel.Estimate) {
		p := s.Profile()
		res, err := sim.Run(sim.Config{
			Profile: p,
			Scheme:  spare.NewMaxWE(p, spare.DefaultMaxWEOptions()),
			Attack:  attack.NewUAA(),
		})
		if err != nil {
			b.Fatal(err)
		}
		o := mapping.PaperOverhead()
		params := perfmodel.DefaultParams()
		hybrid, err = perfmodel.Evaluate(params, perfmodel.Inputs{
			UserWrites:       res.UserWrites,
			DeviceWrites:     res.DeviceWrites,
			TableMB:          mapping.BitsToMB(o.TotalBits()),
			LookupsPerAccess: 2, // LMT then RMT
		})
		if err != nil {
			b.Fatal(err)
		}
		flat, err = perfmodel.Evaluate(params, perfmodel.Inputs{
			UserWrites:       res.UserWrites,
			DeviceWrites:     res.DeviceWrites,
			TableMB:          mapping.BitsToMB(o.TraditionalBits()),
			LookupsPerAccess: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return hybrid, flat
	}
	hybrid, flat := run()
	printOnce("latency", func() {
		t := report.NewTable("Extension — per-write latency model (§4.1), UAA on Max-WE",
			"mapping", "translation ns", "movement ns", "total ns/write")
		t.AddRow("hybrid RMT+LMT", hybrid.TranslationNs, hybrid.MovementNs, hybrid.TotalNsPerWrite)
		t.AddRow("flat line-level", flat.TranslationNs, flat.MovementNs, flat.TotalNsPerWrite)
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkExtOracleAdversary probes the threat model boundary: an
// adversary with manufacture-time endurance knowledge sweeps only the
// weakest tenth of the user space. Weak-priority sparing is optimal
// against the paper's oblivious UAA but collapses here, while strong
// spares (PS-worst) stay robust — a finding the extension reports
// honestly.
func BenchmarkExtOracleAdversary(b *testing.B) {
	s := benchSetup()
	rows := experiments.OracleStudy(s)
	printOnce("oracle", func() {
		t := report.NewTable("Extension — oblivious UAA vs endurance-aware adversary",
			"scheme", "lifetime under UAA", "lifetime under oracle sweep")
		for _, r := range rows {
			t.AddRow(r.Scheme, r.UAA, r.Oracle)
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.OracleStudy(s)
	}
}

// BenchmarkExtProfileSensitivity re-runs the §5.3.1 comparison under all
// three endurance-distribution families, showing the headline ordering is
// distribution-independent.
func BenchmarkExtProfileSensitivity(b *testing.B) {
	s := benchSetup()
	rows := experiments.ProfileSensitivity(s)
	printOnce("profiles", func() {
		t := report.NewTable("Extension — §5.3.1 under three endurance distributions (q=50)",
			"distribution", "scheme", "normalized lifetime")
		for _, ps := range rows {
			for _, r := range ps.Rows {
				t.AddRow(ps.ProfileName, r.Scheme, r.Normalized)
			}
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.ProfileSensitivity(s)
	}
}

// BenchmarkExtAttackDetection measures the online write-pattern monitor:
// detection latency for each attack family and the false-positive rate on
// benign traffic.
func BenchmarkExtAttackDetection(b *testing.B) {
	const space = 1 << 16
	run := func() [][3]string {
		streams := []struct {
			label string
			atk   attack.Attack
		}{
			{"uaa", attack.NewUAA()},
			{"bpa", attack.DefaultBPA(xrand.New(1))},
			{"repeated", attack.NewRepeated(12345)},
			{"zipf (benign)", attack.NewHotCold(space, 1.1, xrand.New(2))},
			{"random (benign)", attack.NewRandomUniform(xrand.New(3))},
		}
		var rows [][3]string
		for _, s := range streams {
			mon, err := detect.NewMonitor(detect.Config{})
			if err != nil {
				b.Fatal(err)
			}
			detected := "never"
			verdict := "-"
			for i := 1; i <= 20_000; i++ {
				v, done := mon.Observe(s.atk.Next(space))
				if done && v != detect.Benign && detected == "never" {
					detected = fmt.Sprint(i)
					verdict = v.String()
				}
			}
			rows = append(rows, [3]string{s.label, verdict, detected})
		}
		return rows
	}
	rows := run()
	printOnce("detect", func() {
		t := report.NewTable("Extension — online attack detection (window 1024)",
			"stream", "verdict", "writes to detect")
		for _, r := range rows {
			t.AddRow(r[0], r[1], r[2])
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkExtGuardThrottle measures the dynamic-defense extension: UAA
// wall-clock time to failure with and without the detect+throttle guard
// at a PCM-scale attack rate.
func BenchmarkExtGuardThrottle(b *testing.B) {
	s := benchSetup()
	const rate = 1e8 // line-writes per second
	rows := experiments.GuardStudy(s, rate)
	printOnce("guard", func() {
		t := report.NewTable("Extension — detect+throttle guard (UAA on Max-WE, projected to a 1 GB module)",
			"configuration", "time to failure (days)", "stretch")
		for _, r := range rows {
			t.AddRow(r.Configuration, r.Days, fmt.Sprintf("%.0fx", r.Stretch))
		}
		_, _ = t.WriteTo(os.Stdout)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.GuardStudy(s, rate)
	}
}

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
	s := benchSetup()
	percents := []int{0, 20, 60, 80, 90, 100}
	cfg := runner.Config{Parallelism: 1, Cache: cache}
	if _, err := runner.Run(context.Background(), cfg, experiments.Fig7Cells(s, percents, experiments.WLNames())); err != nil {
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
	s := benchSetup()
	p := s.Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch := spare.NewMaxWE(p, spare.DefaultMaxWEOptions())
		if _, err := sim.Run(sim.Config{Profile: p, Scheme: sch, Attack: attack.NewUAA()}); err != nil {
			b.Fatal(err)
		}
	}
}
