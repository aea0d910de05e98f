// Command figures regenerates the paper's tables and figures at the full
// default experiment scale (512 regions x 32 lines) and prints them as
// text tables (or CSV with -csv). The committed reference output is
// FIGURES.txt; EXPERIMENTS.md compares it with the paper.
//
// The sweep-shaped artifacts (Figures 7 and 8) run through the resilient
// sweep supervisor: SIGINT/SIGTERM cancels the run cooperatively and the
// partial rows computed so far are still printed, and -checkpoint makes
// the sweeps resumable — a rerun with the same flags picks up exactly
// where the interrupted run stopped, with bit-identical results.
//
// Usage:
//
//	figures            # everything (about 10 s on a 2-CPU host)
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
	"strings"
	"syscall"

	"maxwe/internal/artifacts"
	"maxwe/internal/experiments"
	"maxwe/internal/memo"
	"maxwe/internal/runner"
)

var (
	figFlag   = flag.String("fig", "all", "artifact to regenerate: "+strings.Join(ids(), "|")+"|all")
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

func ids() []string {
	var out []string
	for _, a := range artifacts.All() {
		out = append(out, a.ID)
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(2)
}

func main() {
	flag.Parse()
	// ctx is canceled on SIGINT/SIGTERM; the sweep artifacts poll it and
	// the artifact loop stops between artifacts.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	s := experiments.DefaultSetup()
	if *quickFlag {
		s = artifacts.BenchSetup()
	}
	if *seedFlag != 0 {
		s.Seed = *seedFlag
	}
	for _, dir := range []string{*outDir, *ckptDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fail(err)
			}
		}
	}
	if *cacheFlag || *cacheDir != "" {
		dir := *cacheDir
		if dir == "" {
			dir = ".maxwe-cache"
		}
		var err error
		if memoCache, err = memo.Open(memo.Options{Dir: dir}); err != nil {
			fail(err)
		}
	}
	list := artifacts.All()
	if *figFlag != "all" {
		a, ok := artifacts.Lookup(*figFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown artifact %q\n", *figFlag)
			os.Exit(2)
		}
		list = []artifacts.Artifact{a}
	}
	for _, a := range list {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "figures: interrupted, remaining artifacts skipped")
			os.Exit(130)
		}
		if err := render(ctx, a, s); err != nil {
			fail(err)
		}
	}
}

// render runs one artifact and writes it to stdout, followed by a blank
// line, or to <dir>/<id>.txt under -o.
func render(ctx context.Context, a artifacts.Artifact, s experiments.Setup) error {
	// Sweep checkpoints keep their fig7/fig8 file names.
	name := "fig" + a.ID
	out, err := a.Run(ctx, s, sweepConfig(name, s))
	if err != nil {
		return err
	}
	if out.Interrupted {
		fmt.Fprintf(os.Stderr, "figures: %s interrupted after %d/%d cells (partial table follows)\n",
			name, out.Done, out.Total)
	}
	text := out.Text()
	switch {
	case *jsonFlag:
		text = out.Table.JSON()
	case *csvFlag:
		text = out.Table.CSV()
	}
	if *outDir == "" {
		_, err := fmt.Println(text)
		return err
	}
	path := fmt.Sprintf("%s/%s.txt", *outDir, a.ID)
	//lint:allow durablewrite "regenerated report; a torn file just means rerunning figures"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
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
