// Command nvmsim runs a single NVM lifetime simulation: one device, one
// spare-line scheme, one wear-leveling substrate, one attack. It prints
// the normalized lifetime and the supporting counters.
//
// The run is cancelable: on SIGINT/SIGTERM the simulation stops at the
// next poll point and the partial result is printed, so a long run
// interrupted with Ctrl-C still reports the writes it served.
//
// With -seeds N the same stack is simulated under N consecutive seeds
// (seed, seed+1, ...) and the lifetime spread is reported; -parallel
// spreads those runs across workers with results identical to -parallel 1.
//
// Examples:
//
//	nvmsim                                  # Max-WE under UAA, paper defaults
//	nvmsim -scheme none -attack uaa         # the unprotected 4% baseline
//	nvmsim -scheme max-we -attack bpa -wl wawl
//	nvmsim -scheme ps-worst -spare 0.2 -q 100
//	nvmsim -fault-transient 0.01 -fault-stuckat 0.001   # inject faults
//	nvmsim -scheme max-we -attack bpa -seeds 16 -parallel 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"maxwe"
	"maxwe/internal/memo"
	"maxwe/internal/perfmodel"
	"maxwe/internal/report"
	"maxwe/internal/runner"
)

func main() {
	cfg := maxwe.DefaultConfig()
	flag.IntVar(&cfg.Regions, "regions", cfg.Regions, "number of regions")
	flag.IntVar(&cfg.LinesPerRegion, "lines-per-region", cfg.LinesPerRegion, "lines per region")
	flag.Float64Var(&cfg.MeanEndurance, "endurance", cfg.MeanEndurance, "mean line endurance (scaled writes)")
	flag.Float64Var(&cfg.VariationQ, "q", cfg.VariationQ, "max/min endurance ratio")
	flag.BoolVar(&cfg.LinearProfile, "linear", cfg.LinearProfile, "linear endurance profile (false = Eq 1-2 power law)")
	flag.StringVar(&cfg.Scheme, "scheme", cfg.Scheme, "spare scheme: max-we|pcd|ps-random|ps-worst|ps-best|none")
	flag.Float64Var(&cfg.SpareFraction, "spare", cfg.SpareFraction, "spare fraction of total capacity")
	flag.Float64Var(&cfg.SWRFraction, "swr", cfg.SWRFraction, "SWR fraction of spare capacity (max-we)")
	flag.StringVar(&cfg.WearLeveling, "wl", cfg.WearLeveling, "wear leveling: \"\"|identity|start-gap|tlsr|pcm-s|bwl|wawl|twl")
	flag.IntVar(&cfg.Psi, "psi", cfg.Psi, "wear-leveling remap period (writes)")
	flag.StringVar(&cfg.Attack, "attack", cfg.Attack, "attack: uaa|bpa|repeated|random|hotcold")
	flag.Int64Var(&cfg.MaxUserWrites, "max-writes", cfg.MaxUserWrites, "truncate the run after this many user writes (0 = to failure)")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	flag.Float64Var(&cfg.Faults.TransientProb, "fault-transient", 0, "per-write probability of a transient write failure")
	flag.Float64Var(&cfg.Faults.StuckAtProb, "fault-stuckat", 0, "per-write probability of a stuck-at line death")
	flag.Float64Var(&cfg.Faults.MetadataProb, "fault-metadata", 0, "per-write probability of a metadata corruption")
	flag.IntVar(&cfg.Faults.MaxTransientRetries, "fault-retries", 0, "max retries a transient fault demands (0 = default)")
	flag.Uint64Var(&cfg.Faults.Seed, "fault-seed", 0, "fault plan seed (independent of -seed)")
	wearBuckets := flag.Int("wear-buckets", 0, "print a wear histogram with this many buckets (0 = off)")
	seedsFlag := flag.Int("seeds", 1, "simulate this many consecutive seeds (seed, seed+1, ...) and report the spread")
	parallelFlag := flag.Int("parallel", 0, "worker count for -seeds sweeps (0 = one per CPU, 1 = sequential); results are identical at every setting")
	cacheFlag := flag.Bool("cache", false, "memoize -seeds sweep cells in the content-addressed result cache (bit-identical reruns are near-instant)")
	cacheDir := flag.String("cache-dir", "", "result cache directory (implies -cache; default .maxwe-cache)")
	flag.Parse()

	// Ctrl-C cancels the run cooperatively; the partial result is printed
	// below. A second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *seedsFlag > 1 {
		runSeedSweep(ctx, cfg, *seedsFlag, *parallelFlag, openCache(*cacheFlag, *cacheDir))
		return
	}

	sys, err := maxwe.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmsim:", err)
		os.Exit(2)
	}

	var res maxwe.Result
	var wear []int
	if *wearBuckets > 0 {
		res, wear = sys.RunLifetimeWithWear(*wearBuckets)
	} else {
		res = sys.RunLifetimeCtx(ctx)
	}

	fmt.Printf("device             : %d lines (%d regions x %d), mean endurance %.0f, q=%.0f\n",
		sys.Profile().Lines(), cfg.Regions, cfg.LinesPerRegion, cfg.MeanEndurance, cfg.VariationQ)
	fmt.Printf("stack              : scheme=%s spares=%.0f%% wl=%s attack=%s\n",
		cfg.Scheme, cfg.SpareFraction*100, orNone(cfg.WearLeveling), cfg.Attack)
	fmt.Printf("user writes served : %d\n", res.UserWrites)
	fmt.Printf("device writes      : %d (amplification %.3f)\n", res.DeviceWrites, res.WriteAmplification)
	fmt.Printf("normalized lifetime: %.4f of ideal (%.0f writes)\n", res.NormalizedLifetime, sys.IdealLifetime())
	fmt.Printf("worn lines         : %d, spares used: %d\n", res.WornLines, res.SparesUsed)
	if res.Faults.Any() {
		fmt.Printf("faults injected    : transient=%d (retries=%d, backoff=%d, escalated=%d) stuck-at=%d metadata=%d (repaired=%d)\n",
			res.Faults.TransientFaults, res.Faults.Retries, res.Faults.BackoffUnits,
			res.Faults.Escalations, res.Faults.StuckAtFaults,
			res.Faults.MetadataFaults, res.Faults.MetadataRepairs)
	}
	switch {
	case res.Interrupted:
		fmt.Println("outcome            : interrupted (partial result)")
	case res.Failed:
		fmt.Println("outcome            : device failed (spares exhausted)")
	default:
		fmt.Println("outcome            : run truncated at -max-writes")
	}
	if res.Failed {
		// Project the normalized result onto a physical 1 GB PCM module
		// (4 Mi lines, 1e8 endurance) under a saturating attacker at
		// 1e8 line-writes/s — the paper's wall-clock framing.
		proj, err := perfmodel.Project(res.NormalizedLifetime, 1<<22, 1e8, 1e8)
		if err == nil {
			fmt.Printf("projected          : a real 1 GB module would last %s under this workload\n",
				perfmodel.FormatDuration(proj.Seconds))
		}
	}
	if len(wear) > 0 {
		fmt.Println()
		labels := make([]string, len(wear))
		values := make([]float64, len(wear))
		for i, c := range wear {
			lo := 100 * i / len(wear)
			hi := 100 * (i + 1) / len(wear)
			labels[i] = fmt.Sprintf("%3d-%3d%%", lo, hi)
			values[i] = float64(c)
		}
		fmt.Print(report.BarChart("lines per consumed-budget bucket at end of run",
			labels, values, 40))
	}
}

// runSeedSweep simulates the configured stack under seeds consecutive
// seeds through the sweep supervisor and prints the per-seed lifetimes
// plus their spread. Every run is an independent cell, so the sweep is
// embarrassingly parallel yet produces the same table at every worker
// count.
func runSeedSweep(ctx context.Context, base maxwe.Config, seeds, parallel int, cache *memo.Cache) {
	cells := make([]runner.Cell[maxwe.Result], seeds)
	for i := 0; i < seeds; i++ {
		cfg := base
		cfg.Seed = base.Seed + uint64(i)
		cells[i] = cfg.Cell(fmt.Sprintf("seed/%d", cfg.Seed))
	}
	rep, err := runner.Run(ctx, runner.Config{Parallelism: parallel, Cache: cache}, cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmsim:", err)
		os.Exit(2)
	}

	t := report.NewTable(
		fmt.Sprintf("lifetime across %d seeds (scheme=%s wl=%s attack=%s)",
			seeds, base.Scheme, orNone(base.WearLeveling), base.Attack),
		"seed", "normalized lifetime", "user writes", "worn lines", "spares used")
	var sum, min, max float64
	n := 0
	for i := 0; i < seeds; i++ {
		seed := base.Seed + uint64(i)
		res, ok := rep.Results[fmt.Sprintf("seed/%d", seed)]
		if !ok {
			continue
		}
		t.AddRow(seed, res.NormalizedLifetime, res.UserWrites, res.WornLines, res.SparesUsed)
		if n == 0 || res.NormalizedLifetime < min {
			min = res.NormalizedLifetime
		}
		if n == 0 || res.NormalizedLifetime > max {
			max = res.NormalizedLifetime
		}
		sum += res.NormalizedLifetime
		n++
	}
	_, _ = t.WriteTo(os.Stdout)
	if n > 0 {
		fmt.Printf("normalized lifetime: mean %.4f, min %.4f, max %.4f over %d seeds\n",
			sum/float64(n), min, max, n)
	}
	for key, msg := range rep.Failed {
		fmt.Fprintf(os.Stderr, "nvmsim: %s failed: %s\n", key, msg)
	}
	if rep.Interrupted {
		fmt.Fprintf(os.Stderr, "nvmsim: interrupted after %d/%d seeds (partial spread above)\n",
			n, seeds)
		os.Exit(130)
	}
	if len(rep.Failed) > 0 {
		os.Exit(1)
	}
}

// openCache opens the content-addressed result cache when -cache or
// -cache-dir asked for one; nil disables memoization.
func openCache(enabled bool, dir string) *memo.Cache {
	if !enabled && dir == "" {
		return nil
	}
	if dir == "" {
		dir = ".maxwe-cache"
	}
	c, err := memo.Open(memo.Options{Dir: dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmsim:", err)
		os.Exit(2)
	}
	return c
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
