// Package artifacts builds every table and figure of the paper's
// evaluation, and of the extensions, in one ordered registry. cmd/figures
// renders the registry at the full default scale (FIGURES.txt), the root
// package's benches time its entries at BenchSetup's scale, and the
// package's golden test pins every entry at that scale.
package artifacts

import (
	"context"
	"fmt"

	"maxwe/internal/analytic"
	"maxwe/internal/attack"
	"maxwe/internal/buffer"
	"maxwe/internal/detect"
	"maxwe/internal/encoding"
	"maxwe/internal/endurance"
	"maxwe/internal/experiments"
	"maxwe/internal/mapping"
	"maxwe/internal/perfmodel"
	"maxwe/internal/report"
	"maxwe/internal/runner"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
	"maxwe/internal/xrand"
)

// Output is one artifact's result.
type Output struct {
	Table *report.Table
	// Plot is Figure 7's line plot, set only when every cell completed.
	Plot string
	// Done and Total count a sweep's completed and planned cells; both
	// are 0 for artifacts that run no sweep.
	Done, Total int
	// Interrupted reports that the context ended the sweep early; Table
	// then holds the completed cells.
	Interrupted bool
}

// Text renders the table as aligned text, followed by the plot after a
// blank line when there is one.
func (o Output) Text() string {
	if o.Plot == "" {
		return o.Table.String()
	}
	return o.Table.String() + "\n" + o.Plot
}

// Artifact is one registry entry.
type Artifact struct {
	// ID names the artifact on the figures -fig flag and is its file
	// stem under figures -o.
	ID string
	// Run builds the artifact at setup s. Only the sweeps (Figures 7 and
	// 8) use ctx and cfg.
	Run func(ctx context.Context, s experiments.Setup, cfg runner.Config) (Output, error)
}

var registry = []Artifact{
	{"1", table(fig1)},
	{"2", table(fig2)},
	{"5", table(fig5)},
	{"6", table(fig6)},
	{"7", fig7},
	{"8", fig8},
	{"uaa", table(tableUAA)},
	{"overhead", table(tableOverhead)},
	{"vuln", table(vulnerabilities)},
	{"ablations", table(ablations)},
	{"ecp", table(ecpStudy)},
	{"coverage", table(coverageStudy)},
	{"tlsrcheck", table(tlsrCheck)},
	{"salvage", table(salvageStudy)},
	{"zoo", table(wlZoo)},
	{"profiles", table(profileSensitivity)},
	{"oracle", table(oracleStudy)},
	{"guard", table(guardStudy)},
	{"sec21", table(sec21)},
	{"robustness", table(robustness)},
	{"latency", table(writeLatency)},
	{"detect", table(attackDetection)},
}

// All returns every artifact in print order.
func All() []Artifact { return append([]Artifact(nil), registry...) }

// Lookup returns the artifact named id.
func Lookup(id string) (Artifact, bool) {
	for _, a := range registry {
		if a.ID == id {
			return a, true
		}
	}
	return Artifact{}, false
}

// BenchSetup is the small scale of figures -quick, the root benches and
// cmd/verify: 256 regions x 16 lines at mean endurance 1000, large
// enough for stable orderings and small enough that every artifact runs
// in about a second.
func BenchSetup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.Regions = 256
	s.LinesPerRegion = 16
	s.MeanEndurance = 1000
	return s
}

// table adapts a builder that runs no sweep.
func table(build func(experiments.Setup) (*report.Table, error)) func(context.Context, experiments.Setup, runner.Config) (Output, error) {
	return func(_ context.Context, s experiments.Setup, _ runner.Config) (Output, error) {
		t, err := build(s)
		return Output{Table: t}, err
	}
}

func fig1(s experiments.Setup) (*report.Table, error) {
	par := analytic.FromPQ(float64(s.Regions*s.LinesPerRegion), 0, s.VariationQ)
	p := s.Profile()
	res, err := sim.Run(sim.Config{
		Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA(),
	})
	if err != nil {
		return nil, fmt.Errorf("artifacts: fig1 simulation: %w", err)
	}
	t := report.NewTable("Figure 1 — ideal vs UAA lifetime (linear model)", "quantity", "value")
	t.AddRow("analytic L_UAA/L_ideal (Eq 5)", par.UAARatio())
	t.AddRow("simulated normalized lifetime under UAA", res.NormalizedLifetime)
	for _, pt := range par.Fig1Series(11) {
		t.AddRow(fmt.Sprintf("endurance at rank %.1f", pt.LineRank), pt.Endurance)
	}
	return t, nil
}

func fig2(s experiments.Setup) (*report.Table, error) {
	s.Psi = 4
	r := experiments.Fig2(s)
	t := report.NewTable("Figure 2 / §3.3.1 — remapping aggravates wear under UAA",
		"configuration", "write amplification", "normalized lifetime")
	t.AddRow("no wear leveling", r.PlainAmplification, r.PlainLifetime)
	t.AddRow("tlsr remapping", r.LeveledAmplification, r.LeveledLifetime)
	return t, nil
}

func fig5(experiments.Setup) (*report.Table, error) {
	t := report.NewTable("Figure 5 — analytic lifetime surface (normalized to ideal)",
		"p", "q", "max-we", "pcd/ps", "ps-worst")
	for _, pt := range analytic.Fig5Surface(0.1, 0.3, 5, 10, 100, 10) {
		t.AddRow(pt.P, pt.Q, pt.MaxWE, pt.PCDPS, pt.PSWorst)
	}
	return t, nil
}

func fig6(s experiments.Setup) (*report.Table, error) {
	t := report.NewTable("Figure 6 — normalized lifetime under UAA vs spare percentage",
		"spare %", "normalized lifetime")
	for _, r := range experiments.Fig6(s, []int{0, 1, 10, 20, 30, 40, 50}) {
		t.AddRow(r.SparePercent, r.Normalized)
	}
	return t, nil
}

func fig7(ctx context.Context, s experiments.Setup, cfg runner.Config) (Output, error) {
	percents := experiments.Fig7DefaultPercents()
	rows, rep, err := experiments.Fig7Sweep(ctx, cfg, s, percents, experiments.WLNames())
	if err != nil {
		return Output{}, err
	}
	out := Output{Table: experiments.Fig7Table(rows), Done: len(rep.Results),
		Total: len(percents) * len(experiments.WLNames()), Interrupted: rep.Interrupted}
	if len(rows) == out.Total {
		series := map[string][]float64{}
		for _, r := range rows {
			series[r.WL] = append(series[r.WL], r.Normalized)
		}
		labels := make([]string, len(percents))
		for i, p := range percents {
			labels[i] = fmt.Sprintf("%d%%", p)
		}
		out.Plot = report.LinePlot("Figure 7 curves (y: normalized lifetime, x: SWR %)",
			labels, series, 12)
	}
	return out, nil
}

func fig8(ctx context.Context, s experiments.Setup, cfg runner.Config) (Output, error) {
	rows, gmeans, rep, err := experiments.Fig8Sweep(ctx, cfg, s)
	if err != nil {
		return Output{}, err
	}
	return Output{Table: experiments.Fig8Table(rows, gmeans), Done: len(rep.Results),
		Total: len(experiments.WLNames()) * len(experiments.SchemeNames()), Interrupted: rep.Interrupted}, nil
}

func tableUAA(s experiments.Setup) (*report.Table, error) {
	t := report.NewTable("§5.3.1 — lifetime under UAA (10% spares)",
		"scheme", "normalized lifetime", "improvement")
	for _, r := range experiments.TableUAA(s) {
		t.AddRow(r.Scheme, r.Normalized, fmt.Sprintf("%.1fX", r.ImprovementX))
	}
	return t, nil
}

func tableOverhead(experiments.Setup) (*report.Table, error) {
	o := mapping.PaperOverhead()
	t := report.NewTable("§5.3.2 — mapping table overhead (1 GB, 2048 regions)",
		"table", "size (MB)")
	t.AddRow("Max-WE hybrid (LMT+RMT+tags)", mapping.BitsToMB(o.TotalBits()))
	t.AddRow("  of which LMT", mapping.BitsToMB(o.LMTBits()))
	t.AddRow("  of which RMT", mapping.BitsToMB(o.RMTBits()))
	t.AddRow("  of which wear-out tags", mapping.BitsToMB(o.TagBits()))
	t.AddRow("traditional line-level", mapping.BitsToMB(o.TraditionalBits()))
	t.AddRow("reduction", fmt.Sprintf("%.1f%%", o.Reduction()*100))
	return t, nil
}

func vulnerabilities(experiments.Setup) (*report.Table, error) {
	const memLines = 4096
	hot := buffer.New(32, 8)
	z := xrand.NewZipf(memLines, 1.2)
	src := xrand.New(3)
	for i := 0; i < 100000; i++ {
		hot.Write(z.Draw(src))
	}
	uaa := buffer.New(32, 8)
	for i := 0; i < 100000; i++ {
		uaa.Write(i % memLines)
	}
	// Flip-N-Write: expected random-update cost vs the paper's
	// adversarial 0x0000/0x5555 pattern (32-bit words).
	const width = 32
	fnw := encoding.NewFNW(width, 0)
	a, b := encoding.AdversarialPair(width)
	total := 0
	const writes = 10000
	for i := 0; i < writes; i++ {
		if i%2 == 0 {
			total += fnw.Write(b)
		} else {
			total += fnw.Write(a)
		}
	}
	t := report.NewTable("§3.3.2 — buffer and write-reduction vulnerabilities",
		"quantity", "value")
	t.AddRow("DRAM buffer hit rate, Zipf workload", hot.HitRate())
	t.AddRow("DRAM buffer hit rate, UAA", uaa.HitRate())
	t.AddRow("Flip-N-Write bit-cost, random data (32-bit)", encoding.AverageRandomCost(width))
	t.AddRow("Flip-N-Write bit-cost, adversarial pattern", float64(total)/writes)
	t.AddRow("Flip-N-Write worst-case bound", encoding.MaxFNWCost(width))
	return t, nil
}

func ablations(s experiments.Setup) (*report.Table, error) {
	t := report.NewTable("Ablations — Max-WE design strategies under UAA (10% spares)",
		"variant", "normalized lifetime")
	for _, r := range experiments.Ablations(s) {
		t.AddRow(r.Variant, r.Normalized)
	}
	return t, nil
}

func ecpStudy(s experiments.Setup) (*report.Table, error) {
	t := report.NewTable("Extension — ECP salvaging vs spare-line replacement under UAA",
		"ECP k", "capacity overhead", "ECP only", "ECP + Max-WE")
	for _, r := range experiments.ECPStudy(s, []int{0, 1, 2, 4, 6}) {
		t.AddRow(r.K, fmt.Sprintf("%.1f%%", r.CapacityOverhead*100), r.ECPOnly, r.ECPPlusMaxWE)
	}
	return t, nil
}

func coverageStudy(s experiments.Setup) (*report.Table, error) {
	t := report.NewTable("Extension — UAA effectiveness vs reachable memory fraction (§3.2)",
		"coverage", "unprotected", "max-we")
	for _, r := range experiments.CoverageStudy(s, []float64{0.25, 0.5, 0.75, 0.95, 1.0}) {
		t.AddRow(fmt.Sprintf("%.0f%%", r.Coverage*100), r.Unprotected, r.MaxWE)
	}
	return t, nil
}

func tlsrCheck(s experiments.Setup) (*report.Table, error) {
	r := experiments.TLSRModelCheck(s)
	t := report.NewTable("Extension — behavioural TLSR model vs exact Security Refresh (BPA wear spread)",
		"implementation", "per-line wear CV", "write amplification")
	t.AddRow("behavioural swap model", r.BehavioralSpreadCV, r.BehavioralAmp)
	t.AddRow("two-level security refresh (exact)", r.ExactSpreadCV, r.ExactAmp)
	return t, nil
}

func salvageStudy(s experiments.Setup) (*report.Table, error) {
	t := report.NewTable("Extension — salvaging baselines: UAA rounds to 10% capacity loss",
		"policy", "rounds / mean endurance")
	for _, r := range experiments.SalvageStudy(s) {
		t.AddRow(r.Policy, r.RoundsTo90)
	}
	return t, nil
}

func wlZoo(s experiments.Setup) (*report.Table, error) {
	t := report.NewTable("Extension — all wear-leveling substrates under BPA (Max-WE, 10% spares)",
		"wear leveling", "normalized lifetime", "amplification")
	for _, r := range experiments.WLZoo(s) {
		t.AddRow(r.WL, r.Normalized, r.Amplification)
	}
	return t, nil
}

func profileSensitivity(s experiments.Setup) (*report.Table, error) {
	t := report.NewTable("Extension — §5.3.1 under three endurance distributions (q=50)",
		"distribution", "scheme", "normalized lifetime")
	for _, ps := range experiments.ProfileSensitivity(s) {
		for _, r := range ps.Rows {
			t.AddRow(ps.ProfileName, r.Scheme, r.Normalized)
		}
	}
	return t, nil
}

func oracleStudy(s experiments.Setup) (*report.Table, error) {
	t := report.NewTable("Extension — oblivious UAA vs endurance-aware adversary",
		"scheme", "lifetime under UAA", "lifetime under oracle sweep")
	for _, r := range experiments.OracleStudy(s) {
		t.AddRow(r.Scheme, r.UAA, r.Oracle)
	}
	return t, nil
}

func guardStudy(s experiments.Setup) (*report.Table, error) {
	t := report.NewTable("Extension — detect+throttle guard (UAA on Max-WE, projected to a 1 GB module)",
		"configuration", "time to failure (days)", "stretch")
	for _, r := range experiments.GuardStudy(s, 1e8) {
		t.AddRow(r.Configuration, r.Days, fmt.Sprintf("%.0fx", r.Stretch))
	}
	return t, nil
}

// sec21 characterizes the truncated power-law endurance model across a
// 512-domain device; it does not depend on the setup.
func sec21(experiments.Setup) (*report.Table, error) {
	p := endurance.DefaultModel().Sample(512, 8, xrand.New(1))
	t := report.NewTable("§2.1 — endurance variation (Eq 1-2, 512 domains, µ=0.3mA σ=0.033)",
		"quantity", "value")
	t.AddRow("strongest/weakest line ratio", p.Ratio())
	t.AddRow("weakest line endurance", p.Min())
	t.AddRow("strongest line endurance", p.Max())
	t.AddRow("mean line endurance", p.Mean())
	return t, nil
}

// robustness re-runs the §5.3.1 Max-WE improvement across independent
// seeds, showing the single-seed numbers are not cherry-picked.
func robustness(s experiments.Setup) (*report.Table, error) {
	const seeds = 5
	mean, sd := experiments.SeedSweep(s, seeds, func(run experiments.Setup) float64 {
		for _, r := range experiments.TableUAA(run) {
			if r.Scheme == "max-we" {
				return r.ImprovementX
			}
		}
		panic("artifacts: TableUAA has no max-we row")
	})
	t := report.NewTable("Extension — Max-WE UAA improvement across seeds",
		"quantity", "value")
	t.AddRow(fmt.Sprintf("improvement over unprotected (%d seeds)", seeds),
		fmt.Sprintf("%.2fX ± %.2f", mean, sd))
	t.AddRow("paper's reported improvement", "9.5X")
	return t, nil
}

// writeLatency evaluates the §4.1 latency argument: per-write latency of
// the Max-WE hybrid mapping vs a flat line-level table, from the measured
// amplification under UAA and the §4.4 table sizes.
func writeLatency(s experiments.Setup) (*report.Table, error) {
	p := s.Profile()
	res, err := sim.Run(sim.Config{
		Profile: p,
		Scheme:  spare.NewMaxWE(p, spare.DefaultMaxWEOptions()),
		Attack:  attack.NewUAA(),
	})
	if err != nil {
		return nil, fmt.Errorf("artifacts: latency simulation: %w", err)
	}
	o := mapping.PaperOverhead()
	t := report.NewTable("Extension — per-write latency model (§4.1), UAA on Max-WE",
		"mapping", "translation ns", "movement ns", "total ns/write")
	for _, m := range []struct {
		name    string
		bits    float64
		lookups int
	}{
		{"hybrid RMT+LMT", o.TotalBits(), 2}, // LMT then RMT
		{"flat line-level", o.TraditionalBits(), 1},
	} {
		e, err := perfmodel.Evaluate(perfmodel.DefaultParams(), perfmodel.Inputs{
			UserWrites:       res.UserWrites,
			DeviceWrites:     res.DeviceWrites,
			TableMB:          mapping.BitsToMB(m.bits),
			LookupsPerAccess: m.lookups,
		})
		if err != nil {
			return nil, fmt.Errorf("artifacts: latency model: %w", err)
		}
		t.AddRow(m.name, e.TranslationNs, e.MovementNs, e.TotalNsPerWrite)
	}
	return t, nil
}

// attackDetection measures the online write-pattern monitor: the writes
// each attack family takes to be flagged, and whether benign traffic
// ever is. It does not depend on the setup.
func attackDetection(experiments.Setup) (*report.Table, error) {
	const space = 1 << 16
	t := report.NewTable("Extension — online attack detection (window 1024)",
		"stream", "verdict", "writes to detect")
	for _, st := range []struct {
		label string
		atk   attack.Attack
	}{
		{"uaa", attack.NewUAA()},
		{"bpa", attack.DefaultBPA(xrand.New(1))},
		{"repeated", attack.NewRepeated(12345)},
		{"zipf (benign)", attack.NewHotCold(space, 1.1, xrand.New(2))},
		{"random (benign)", attack.NewRandomUniform(xrand.New(3))},
	} {
		mon, err := detect.NewMonitor(detect.Config{})
		if err != nil {
			return nil, fmt.Errorf("artifacts: detection monitor: %w", err)
		}
		detected, verdict := "never", "-"
		for i := 1; i <= 20_000; i++ {
			v, done := mon.Observe(st.atk.Next(space))
			if done && v != detect.Benign && detected == "never" {
				detected = fmt.Sprint(i)
				verdict = v.String()
			}
		}
		t.AddRow(st.label, verdict, detected)
	}
	return t, nil
}
