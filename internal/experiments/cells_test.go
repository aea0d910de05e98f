package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"maxwe/internal/memo"
	"maxwe/internal/runner"
	"maxwe/internal/sim"
	"maxwe/internal/stats"
)

func fig8Sweep(t *testing.T, cfg runner.Config, s Setup) runner.Report[Fig8Row] {
	t.Helper()
	rep, err := runner.Run(context.Background(), cfg, Fig8Cells(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("failed cells: %+v", rep.Failed)
	}
	return rep
}

// goldenLifetimes reads the NormalizedLifetime of every
// testdata/results.golden entry whose key starts with prefix, with the
// keys in file order.
func goldenLifetimes(t *testing.T, prefix string) ([]string, map[string]float64) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	want := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		key, doc, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		var res sim.Result
		if err := json.Unmarshal([]byte(doc), &res); err != nil {
			t.Fatalf("golden %s: %v", key, err)
		}
		keys = append(keys, key)
		want[key] = res.NormalizedLifetime
	}
	return keys, want
}

// TestFig7CellsMatchMonolithicFig7 pins the Fig 7 cells to what the
// former sequential Fig7 computed, as recorded in testdata/results.golden:
// at QuickSetup every Fig7Sweep row equals the NormalizedLifetime of its
// golden entry, in golden row order.
func TestFig7CellsMatchMonolithicFig7(t *testing.T) {
	keys, want := goldenLifetimes(t, "fig7/")
	rows, rep, err := Fig7Sweep(context.Background(), runner.Config{Parallelism: 1},
		QuickSetup(), Fig7DefaultPercents(), WLNames())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("failed cells: %+v", rep.Failed)
	}
	var got []string
	for _, r := range rows {
		key := fmt.Sprintf("fig7/%s/%d", r.WL, r.SWRPercent)
		got = append(got, key)
		if r.Normalized != want[key] {
			t.Errorf("%s = %v, golden %v", key, r.Normalized, want[key])
		}
	}
	if !reflect.DeepEqual(got, keys) {
		t.Fatalf("row order %v, golden order %v", got, keys)
	}
}

// TestFig8CellsMatchMonolithicFig8 pins the Fig 8 cells to what the
// former sequential Fig8 computed, as recorded in testdata/results.golden:
// at QuickSetup every Fig8Sweep row equals the NormalizedLifetime of its
// golden entry, in golden row order, and each gmean is the geometric mean
// of those golden values.
func TestFig8CellsMatchMonolithicFig8(t *testing.T) {
	keys, want := goldenLifetimes(t, "fig8/")
	rows, gmeans, rep, err := Fig8Sweep(context.Background(), runner.Config{Parallelism: 1}, QuickSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("failed cells: %+v", rep.Failed)
	}
	var got []string
	perScheme := map[string][]float64{}
	for _, r := range rows {
		key := fmt.Sprintf("fig8/%s/%s", r.WL, r.Scheme)
		got = append(got, key)
		if r.Normalized != want[key] {
			t.Errorf("%s = %v, golden %v", key, r.Normalized, want[key])
		}
		perScheme[r.Scheme] = append(perScheme[r.Scheme], want[key])
	}
	if !reflect.DeepEqual(got, keys) {
		t.Fatalf("row order %v, golden order %v", got, keys)
	}
	if len(gmeans) != len(SchemeNames()) {
		t.Fatalf("gmeans %v, want one per scheme", gmeans)
	}
	for _, scheme := range SchemeNames() {
		if g := stats.GeoMean(perScheme[scheme]); gmeans[scheme] != g {
			t.Errorf("gmean[%s] = %v, want %v", scheme, gmeans[scheme], g)
		}
	}
}

func TestFig8SweepResumesBitIdentical(t *testing.T) {
	// Acceptance criterion: a sweep killed mid-flight and resumed from its
	// checkpoint produces bit-identical results to an uninterrupted run.
	s := QuickSetup()
	ref := fig8Sweep(t, runner.Config{}, s)

	cfg := runner.Config{
		CheckpointPath: filepath.Join(t.TempDir(), "fig8.ckpt.json"),
		Fingerprint:    s.Fingerprint(),
		// Parallelism 1 pins the sequential cut line: with more workers,
		// every remaining cell may already be in flight when the third Done
		// lands, and a cancellation that outruns no work interrupts nothing.
		Parallelism: 1,
	}
	// Kill the sweep after the third completed cell.
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	cfg.Progress = func(ev runner.Event) {
		if ev.Status == runner.StatusDone {
			if done++; done == 3 {
				cancel()
			}
		}
	}
	rep1, err := runner.Run(ctx, cfg, Fig8Cells(s))
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Interrupted {
		t.Fatal("sweep survived cancellation")
	}
	if len(rep1.Results) >= len(ref.Results) {
		t.Fatalf("interrupted sweep completed all %d cells", len(rep1.Results))
	}

	cfg.Progress = nil
	rep2 := fig8Sweep(t, cfg, s)
	if rep2.Resumed != len(rep1.Results) {
		t.Fatalf("resumed %d cells, want %d", rep2.Resumed, len(rep1.Results))
	}
	if !reflect.DeepEqual(ref.Results, rep2.Results) {
		t.Fatalf("resumed sweep diverged:\nref %+v\ngot %+v", ref.Results, rep2.Results)
	}
}

func TestFigSweepsParallelBitIdentical(t *testing.T) {
	// Acceptance criterion: the Fig 7/8 sweeps produce results bit-identical
	// to the sequential run at every worker count.
	s := QuickSetup()
	pcts := []int{0, 90}
	wls := []string{"tlsr", "bwl"}

	refRows7, refRep7, err := Fig7Sweep(context.Background(), runner.Config{Parallelism: 1}, s, pcts, wls)
	if err != nil {
		t.Fatal(err)
	}
	refRows8, refGmeans, refRep8, err := Fig8Sweep(context.Background(), runner.Config{Parallelism: 1}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRep7.Failed)+len(refRep8.Failed) != 0 {
		t.Fatalf("failed cells: %+v %+v", refRep7.Failed, refRep8.Failed)
	}

	for _, par := range []int{0, 2, 8} {
		rows7, rep7, err := Fig7Sweep(context.Background(), runner.Config{Parallelism: par}, s, pcts, wls)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(refRows7, rows7) || !reflect.DeepEqual(refRep7.Results, rep7.Results) {
			t.Fatalf("parallelism %d: Fig7 diverged from sequential", par)
		}
		rows8, gmeans, rep8, err := Fig8Sweep(context.Background(), runner.Config{Parallelism: par}, s)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(refRows8, rows8) || !reflect.DeepEqual(refRep8.Results, rep8.Results) {
			t.Fatalf("parallelism %d: Fig8 diverged from sequential", par)
		}
		if !reflect.DeepEqual(refGmeans, gmeans) {
			t.Fatalf("parallelism %d: Fig8 gmeans diverged from sequential", par)
		}
	}
}

// TestFigSweepsCacheBitIdentical is the memo-cache acceptance test: the
// full Fig7+Fig8 sweep with the result cache enabled — cold (every cell
// computes and populates) and warm (every cell is a memo hit) — produces
// rows and results bit-identical to the cache-disabled run.
func TestFigSweepsCacheBitIdentical(t *testing.T) {
	s := QuickSetup()
	pcts := []int{0, 90}
	wls := []string{"tlsr", "bwl"}

	refRows7, refRep7, err := Fig7Sweep(context.Background(), runner.Config{}, s, pcts, wls)
	if err != nil {
		t.Fatal(err)
	}
	refRows8, refGmeans, refRep8, err := Fig8Sweep(context.Background(), runner.Config{}, s)
	if err != nil {
		t.Fatal(err)
	}

	cache, err := memo.Open(memo.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for pass, label := range []string{"cold", "warm"} {
		cfg := runner.Config{Cache: cache}
		rows7, rep7, err := Fig7Sweep(context.Background(), cfg, s, pcts, wls)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(refRows7, rows7) || !reflect.DeepEqual(refRep7.Results, rep7.Results) {
			t.Fatalf("%s cached Fig7 diverged from cache-off run", label)
		}
		rows8, gmeans, rep8, err := Fig8Sweep(context.Background(), cfg, s)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(refRows8, rows8) || !reflect.DeepEqual(refRep8.Results, rep8.Results) ||
			!reflect.DeepEqual(refGmeans, gmeans) {
			t.Fatalf("%s cached Fig8 diverged from cache-off run", label)
		}
		st := cache.Stats()
		total := int64(len(refRep7.Results) + len(refRep8.Results))
		if pass == 0 && (st.Puts != total || st.Hits != 0) {
			t.Fatalf("cold pass stats = %+v, want %d puts and 0 hits", st, total)
		}
		if pass == 1 && st.Hits != total {
			t.Fatalf("warm pass stats = %+v, want %d hits", st, total)
		}
	}
}

// TestCellFingerprintGolden pins the exact per-cell fingerprint strings
// of representative Fig7/Fig8 cells. These strings are the memo-cache
// keys: if this test fails, the key derivation drifted and every cached
// result in existence is either orphaned (harmless but wasteful) or —
// far worse, if an old key now names a different computation — stale.
// Such a change must be deliberate; bump sim.EngineSchemaVersion instead
// of silently reshaping the key, then update these constants.
func TestCellFingerprintGolden(t *testing.T) {
	s := QuickSetup()
	const setupFP = "setup/r128/l8/e300/p0/q50/psi32/seed20190602"
	if got := s.Fingerprint(); got != setupFP {
		t.Fatalf("Setup fingerprint = %q, want %q (cache keys and checkpoints orphaned?)", got, setupFP)
	}
	fig7 := Fig7Cells(s, []int{0, 90}, []string{"tlsr"})
	fig8 := Fig8Cells(s)
	golden := []struct {
		name string
		got  string
		want string
	}{
		{"fig7 tlsr 0%", fig7[0].Fingerprint,
			"cells/v1/" + setupFP + "/fig7/tlsr/0"},
		{"fig7 tlsr 90%", fig7[1].Fingerprint,
			"cells/v1/" + setupFP + "/fig7/tlsr/90"},
		{"fig8 tlsr ps-worst", fig8[0].Fingerprint,
			"cells/v1/" + setupFP + "/fig8/tlsr/ps-worst"},
		{"fig8 tlsr max-we", fig8[2].Fingerprint,
			"cells/v1/" + setupFP + "/fig8/tlsr/max-we"},
	}
	for _, tc := range golden {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint = %q, want %q (cache-key-breaking change?)", tc.name, tc.got, tc.want)
		}
	}
	// Every cell's fingerprint must match its key: the memo cache trusts
	// this equality to serve fig7/tlsr/90 bytes only to fig7/tlsr/90.
	for _, c := range fig7 {
		if want := s.CellFingerprint(c.Key); c.Fingerprint != want {
			t.Errorf("cell %s fingerprint = %q, want CellFingerprint %q", c.Key, c.Fingerprint, want)
		}
	}
}

func TestFingerprintDistinguishesSetups(t *testing.T) {
	a, b := QuickSetup(), QuickSetup()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical setups fingerprint differently")
	}
	b.Seed++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different seeds share a fingerprint")
	}
	b = QuickSetup()
	b.ProfileKind = ProfilePowerLaw
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different profile kinds share a fingerprint")
	}
}

func TestCellCancellationLeavesNoTruncatedRows(t *testing.T) {
	// A canceled cell must surface ctx.Err(), never a truncated lifetime.
	s := QuickSetup()
	cells := Fig8Cells(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := cells[0].Run(ctx)
	if err == nil {
		t.Fatal("canceled cell returned a result")
	}
}
