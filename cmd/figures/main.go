// Command figures regenerates the paper's tables and figures at the full
// default experiment scale (512 regions x 32 lines) and prints them as
// text tables (or CSV with -csv). The committed reference output is
// recorded in EXPERIMENTS.md.
//
// The sweep-shaped artifacts (Figures 7 and 8) run through the resilient
// sweep supervisor: SIGINT/SIGTERM cancels the run cooperatively and the
// partial rows computed so far are still printed, and -checkpoint makes
// the sweeps resumable — a rerun with the same flags picks up exactly
// where the interrupted run stopped, with bit-identical results.
//
// Usage:
//
//	figures            # everything (takes a minute or two on one core)
//	figures -fig 6     # just Figure 6
//	figures -fig 8 -csv
//	figures -quick     # the fast benchmark scale instead of the full one
//	figures -fig 8 -checkpoint /tmp/fig-ckpt   # resumable sweep
//	figures -fig 8 -cache      # memoized: a warm rerun is near-instant
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"maxwe/internal/analytic"
	"maxwe/internal/attack"
	"maxwe/internal/buffer"
	"maxwe/internal/encoding"
	"maxwe/internal/experiments"
	"maxwe/internal/mapping"
	"maxwe/internal/memo"
	"maxwe/internal/report"
	"maxwe/internal/runner"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
	"maxwe/internal/xrand"
)

var (
	figFlag = flag.String("fig", "all",
		"artifact to regenerate: 1|2|5|6|7|8|uaa|overhead|vuln|ablations|"+
			"ecp|coverage|tlsrcheck|salvage|zoo|profiles|oracle|guard|all")
	csvFlag   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonFlag  = flag.Bool("json", false, "emit JSON instead of aligned tables")
	quickFlag = flag.Bool("quick", false, "use the small benchmark scale (faster, noisier)")
	seedFlag  = flag.Uint64("seed", 0, "override the experiment seed (0 = default)")
	outDir    = flag.String("o", "", "write each artifact to <dir>/<id>.txt instead of stdout")
	ckptDir   = flag.String("checkpoint", "",
		"checkpoint directory for the sweep artifacts (7, 8): completed cells persist there and reruns resume")
	cellTimeout = flag.Duration("cell-timeout", 0,
		"per-cell deadline for the sweep artifacts (0 = none)")
	retriesFlag = flag.Int("retries", 0,
		"additional deterministic attempts per failed sweep cell")
	parallelFlag = flag.Int("parallel", 0,
		"worker count for the sweep artifacts (0 = one per CPU, 1 = sequential); results are identical at every setting")
	cacheFlag = flag.Bool("cache", false,
		"memoize sweep cells in the content-addressed result cache: a rerun of any sweep sharing the cache serves unchanged cells instantly, bit-identically")
	cacheDir = flag.String("cache-dir", "",
		"result cache directory (implies -cache; default .maxwe-cache)")
)

// memoCache is the process-wide result cache (nil when -cache is off);
// the sweep artifacts hand it to the runner.
var memoCache *memo.Cache

// runCtx is canceled on SIGINT/SIGTERM; the sweep artifacts poll it and
// the all-artifacts loop stops between artifacts.
var runCtx context.Context = context.Background()

func main() {
	flag.Parse()
	var stop context.CancelFunc
	runCtx, stop = signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	s := experiments.DefaultSetup()
	if *quickFlag {
		s.Regions = 256
		s.LinesPerRegion = 16
		s.MeanEndurance = 1000
	}
	if *seedFlag != 0 {
		s.Seed = *seedFlag
	}

	runners := map[string]func(experiments.Setup){
		"1":         fig1,
		"2":         fig2,
		"5":         fig5,
		"6":         fig6,
		"7":         fig7,
		"8":         fig8,
		"uaa":       tableUAA,
		"overhead":  tableOverhead,
		"vuln":      vulnerabilities,
		"ablations": ablations,
		"ecp":       ecpStudy,
		"coverage":  coverageStudy,
		"tlsrcheck": tlsrCheck,
		"salvage":   salvageStudy,
		"zoo":       wlZoo,
		"profiles":  profileSensitivity,
		"oracle":    oracleStudy,
		"guard":     guardStudy,
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
	}
	if *cacheFlag || *cacheDir != "" {
		dir := *cacheDir
		if dir == "" {
			dir = ".maxwe-cache"
		}
		var err error
		memoCache, err = memo.Open(memo.Options{Dir: dir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
	}
	invoke := func(id string, run func(experiments.Setup)) {
		if *outDir == "" {
			run(s)
			fmt.Println()
			return
		}
		// Redirect stdout to <dir>/<id>.txt for this artifact; the
		// runners all print through os.Stdout.
		f, err := os.Create(fmt.Sprintf("%s/%s.txt", *outDir, sanitize(id)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
		old := os.Stdout
		os.Stdout = f
		run(s)
		os.Stdout = old
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "wrote %s/%s.txt\n", *outDir, sanitize(id))
	}
	if *figFlag == "all" {
		for _, k := range []string{"1", "2", "5", "6", "7", "8", "uaa", "overhead",
			"vuln", "ablations", "ecp", "coverage", "tlsrcheck", "salvage", "zoo",
			"profiles", "oracle", "guard"} {
			if runCtx.Err() != nil {
				fmt.Fprintln(os.Stderr, "figures: interrupted, remaining artifacts skipped")
				os.Exit(130)
			}
			invoke(k, runners[k])
		}
		return
	}
	run, ok := runners[*figFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "figures: unknown artifact %q\n", *figFlag)
		os.Exit(2)
	}
	invoke(*figFlag, run)
}

// sanitize keeps artifact ids filesystem-safe (they already are; this is
// defense in depth for future ids).
func sanitize(id string) string {
	out := make([]rune, 0, len(id))
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func emit(t *report.Table) {
	switch {
	case *jsonFlag:
		fmt.Print(t.JSON())
	case *csvFlag:
		fmt.Print(t.CSV())
	default:
		_, _ = t.WriteTo(os.Stdout)
	}
}

func fig1(s experiments.Setup) {
	par := analytic.FromPQ(float64(s.Regions*s.LinesPerRegion), 0, s.VariationQ)
	p := s.Profile()
	res, err := sim.Run(sim.Config{
		Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA(),
	})
	if err != nil {
		panic(fmt.Errorf("main: fig1 simulation: %v", err))
	}
	t := report.NewTable("Figure 1 — ideal vs UAA lifetime (linear model)", "quantity", "value")
	t.AddRow("analytic L_UAA/L_ideal (Eq 5)", par.UAARatio())
	t.AddRow("simulated normalized lifetime under UAA", res.NormalizedLifetime)
	for _, pt := range par.Fig1Series(11) {
		t.AddRow(fmt.Sprintf("endurance at rank %.1f", pt.LineRank), pt.Endurance)
	}
	emit(t)
}

func fig2(s experiments.Setup) {
	s.Psi = 4
	r := experiments.Fig2(s)
	t := report.NewTable("Figure 2 / §3.3.1 — remapping aggravates wear under UAA",
		"configuration", "write amplification", "normalized lifetime")
	t.AddRow("no wear leveling", r.PlainAmplification, r.PlainLifetime)
	t.AddRow("tlsr remapping", r.LeveledAmplification, r.LeveledLifetime)
	emit(t)
}

func fig5(s experiments.Setup) {
	t := report.NewTable("Figure 5 — analytic lifetime surface (normalized to ideal)",
		"p", "q", "max-we", "pcd/ps", "ps-worst")
	for _, pt := range analytic.Fig5Surface(0.1, 0.3, 5, 10, 100, 10) {
		t.AddRow(pt.P, pt.Q, pt.MaxWE, pt.PCDPS, pt.PSWorst)
	}
	emit(t)
}

func fig6(s experiments.Setup) {
	rows := experiments.Fig6(s, []int{0, 1, 10, 20, 30, 40, 50})
	t := report.NewTable("Figure 6 — normalized lifetime under UAA vs spare percentage",
		"spare %", "normalized lifetime")
	for _, r := range rows {
		t.AddRow(r.SparePercent, r.Normalized)
	}
	emit(t)
}

// sweepConfig assembles the runner configuration for one sweep artifact.
// The fingerprint couples the artifact id with the full Setup, so a
// checkpoint from a different artifact, scale or seed is rejected.
func sweepConfig(artifact string, s experiments.Setup) runner.Config {
	cfg := runner.Config{
		CellTimeout: *cellTimeout,
		Retries:     *retriesFlag,
		Parallelism: *parallelFlag,
		Cache:       memoCache,
		Progress: func(ev runner.Event) {
			switch ev.Status {
			case runner.StatusRetry, runner.StatusFailed:
				fmt.Fprintf(os.Stderr, "figures: %s %s (attempt %d): %s\n",
					ev.Key, ev.Status, ev.Attempt, ev.Err)
			case runner.StatusCached:
				fmt.Fprintf(os.Stderr, "figures: %s resumed from checkpoint\n", ev.Key)
			case runner.StatusMemo:
				fmt.Fprintf(os.Stderr, "figures: %s served from result cache\n", ev.Key)
			}
		},
	}
	if *ckptDir != "" {
		cfg.CheckpointPath = filepath.Join(*ckptDir, artifact+".ckpt.json")
		cfg.Fingerprint = artifact + "/" + s.Fingerprint()
	}
	return cfg
}

// reportSweep surfaces a sweep artifact's error or interruption on stderr;
// the caller renders whatever cells completed.
func reportSweep[T any](artifact string, rep runner.Report[T], total int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	if rep.Interrupted {
		fmt.Fprintf(os.Stderr, "figures: %s interrupted after %d/%d cells (partial table follows)\n",
			artifact, len(rep.Results), total)
	}
}

func fig7(s experiments.Setup) {
	percents := experiments.Fig7DefaultPercents()
	total := len(percents) * len(experiments.WLNames())
	rows, rep, err := experiments.Fig7Sweep(runCtx, sweepConfig("fig7", s), s, percents, experiments.WLNames())
	reportSweep("fig7", rep, total, err)
	emit(experiments.Fig7Table(rows))
	if !*csvFlag && !*jsonFlag && len(rows) == total {
		series := map[string][]float64{}
		for _, r := range rows {
			series[r.WL] = append(series[r.WL], r.Normalized)
		}
		labels := make([]string, len(percents))
		for i, p := range percents {
			labels[i] = fmt.Sprintf("%d%%", p)
		}
		fmt.Println()
		fmt.Print(report.LinePlot("Figure 7 curves (y: normalized lifetime, x: SWR %)",
			labels, series, 12))
	}
}

func fig8(s experiments.Setup) {
	total := len(experiments.WLNames()) * len(experiments.SchemeNames())
	rows, gmeans, rep, err := experiments.Fig8Sweep(runCtx, sweepConfig("fig8", s), s)
	reportSweep("fig8", rep, total, err)
	emit(experiments.Fig8Table(rows, gmeans))
}

func tableUAA(s experiments.Setup) {
	rows := experiments.TableUAA(s)
	t := report.NewTable("§5.3.1 — lifetime under UAA (10% spares)",
		"scheme", "normalized lifetime", "improvement")
	for _, r := range rows {
		t.AddRow(r.Scheme, r.Normalized, fmt.Sprintf("%.1fX", r.ImprovementX))
	}
	emit(t)
}

func tableOverhead(experiments.Setup) {
	o := mapping.PaperOverhead()
	t := report.NewTable("§5.3.2 — mapping table overhead (1 GB, 2048 regions)",
		"table", "size (MB)")
	t.AddRow("Max-WE hybrid (LMT+RMT+tags)", mapping.BitsToMB(o.TotalBits()))
	t.AddRow("  of which LMT", mapping.BitsToMB(o.LMTBits()))
	t.AddRow("  of which RMT", mapping.BitsToMB(o.RMTBits()))
	t.AddRow("  of which wear-out tags", mapping.BitsToMB(o.TagBits()))
	t.AddRow("traditional line-level", mapping.BitsToMB(o.TraditionalBits()))
	t.AddRow("reduction", fmt.Sprintf("%.1f%%", o.Reduction()*100))
	emit(t)
}

func vulnerabilities(experiments.Setup) {
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
	emit(t)
}

func ablations(s experiments.Setup) {
	rows := experiments.Ablations(s)
	t := report.NewTable("Ablations — Max-WE design strategies under UAA (10% spares)",
		"variant", "normalized lifetime")
	for _, r := range rows {
		t.AddRow(r.Variant, r.Normalized)
	}
	emit(t)
}

func ecpStudy(s experiments.Setup) {
	rows := experiments.ECPStudy(s, []int{0, 1, 2, 4, 6})
	t := report.NewTable("Extension — ECP salvaging vs spare-line replacement under UAA",
		"ECP k", "capacity overhead", "ECP only", "ECP + Max-WE")
	for _, r := range rows {
		t.AddRow(r.K, fmt.Sprintf("%.1f%%", r.CapacityOverhead*100), r.ECPOnly, r.ECPPlusMaxWE)
	}
	emit(t)
}

func coverageStudy(s experiments.Setup) {
	rows := experiments.CoverageStudy(s, []float64{0.25, 0.5, 0.75, 0.95, 1.0})
	t := report.NewTable("Extension — UAA effectiveness vs reachable memory fraction (§3.2)",
		"coverage", "unprotected", "max-we")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.0f%%", r.Coverage*100), r.Unprotected, r.MaxWE)
	}
	emit(t)
}

func guardStudy(s experiments.Setup) {
	rows := experiments.GuardStudy(s, 1e8)
	t := report.NewTable("Extension — detect+throttle guard (UAA on Max-WE, projected to a 1 GB module)",
		"configuration", "time to failure (days)", "stretch")
	for _, r := range rows {
		t.AddRow(r.Configuration, r.Days, fmt.Sprintf("%.0fx", r.Stretch))
	}
	emit(t)
}

func oracleStudy(s experiments.Setup) {
	rows := experiments.OracleStudy(s)
	t := report.NewTable("Extension — oblivious UAA vs endurance-aware adversary",
		"scheme", "lifetime under UAA", "lifetime under oracle sweep")
	for _, r := range rows {
		t.AddRow(r.Scheme, r.UAA, r.Oracle)
	}
	emit(t)
}

func profileSensitivity(s experiments.Setup) {
	rows := experiments.ProfileSensitivity(s)
	t := report.NewTable("Extension — §5.3.1 under three endurance distributions (q=50)",
		"distribution", "scheme", "normalized lifetime")
	for _, ps := range rows {
		for _, r := range ps.Rows {
			t.AddRow(ps.ProfileName, r.Scheme, r.Normalized)
		}
	}
	emit(t)
}

func wlZoo(s experiments.Setup) {
	rows := experiments.WLZoo(s)
	t := report.NewTable("Extension — all wear-leveling substrates under BPA (Max-WE, 10% spares)",
		"wear leveling", "normalized lifetime", "amplification")
	for _, r := range rows {
		t.AddRow(r.WL, r.Normalized, r.Amplification)
	}
	emit(t)
}

func salvageStudy(s experiments.Setup) {
	rows := experiments.SalvageStudy(s)
	t := report.NewTable("Extension — salvaging baselines: UAA rounds to 10% capacity loss",
		"policy", "rounds / mean endurance")
	for _, r := range rows {
		t.AddRow(r.Policy, r.RoundsTo90)
	}
	emit(t)
}

func tlsrCheck(s experiments.Setup) {
	r := experiments.TLSRModelCheck(s)
	t := report.NewTable("Extension — behavioural TLSR model vs exact Security Refresh (BPA wear spread)",
		"implementation", "per-line wear CV", "write amplification")
	t.AddRow("behavioural swap model", r.BehavioralSpreadCV, r.BehavioralAmp)
	t.AddRow("two-level security refresh (exact)", r.ExactSpreadCV, r.ExactAmp)
	emit(t)
}
