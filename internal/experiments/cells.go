// cells.go decomposes the sweep-shaped experiments (Figures 7 and 8) into
// internal/runner cells: one independent simulation per cell, each
// cancelable through its context and addressable by a stable key. This is
// what lets cmd/figures checkpoint long sweeps and resume them after an
// interruption with bit-identical results — each cell re-derives its
// profile and seeds from the Setup alone, so recomputing any subset
// reproduces exactly what an uninterrupted run would have produced.
package experiments

import (
	"context"
	"fmt"

	"maxwe/internal/attack"
	"maxwe/internal/endurance"
	"maxwe/internal/report"
	"maxwe/internal/runner"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
	"maxwe/internal/stats"
	"maxwe/internal/xrand"
)

// Fingerprint identifies the Setup for checkpoint validation: two Setups
// produce the same fingerprint exactly when they produce the same
// simulation inputs, so a checkpoint written under a different
// configuration is rejected instead of silently reused.
func (s Setup) Fingerprint() string {
	return fmt.Sprintf("setup/r%d/l%d/e%g/p%d/q%g/psi%d/seed%d",
		s.Regions, s.LinesPerRegion, s.MeanEndurance, s.ProfileKind,
		s.VariationQ, s.Psi, s.Seed)
}

// CellFingerprint is the per-cell sibling of Fingerprint: the canonical
// content-address of one sweep cell's result for the memo cache
// (internal/memo). It extends the Setup fingerprint with the engine
// schema version — so results computed by a semantically different
// engine can never be served — and the cell key, which pins the cell's
// own parameters (scheme, leveler, SWR percent). Two cells with equal
// CellFingerprints compute byte-identical results by the same argument
// that makes checkpoint resume safe: every cell re-derives all of its
// state from the Setup and key alone.
func (s Setup) CellFingerprint(key string) string {
	return fmt.Sprintf("cells/v%d/%s/%s", sim.EngineSchemaVersion, s.Fingerprint(), key)
}

// runBPA runs the birthday-paradox attack against sch under the named
// leveler and returns the normalized lifetime. The simulation polls ctx,
// and an interrupted run surfaces as ctx's error, so the runner leaves
// the cell incomplete instead of recording a truncated lifetime.
func (s Setup) runBPA(ctx context.Context, p *endurance.Profile, sch spare.Scheme, wl string) (float64, error) {
	lev, err := newLeveler(wl, sch, p, s.Psi, xrand.New(s.Seed+2))
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(sim.Config{
		Profile: p,
		Scheme:  sch,
		Leveler: lev,
		Attack:  attack.DefaultBPA(xrand.New(s.Seed + 3)),
		Done:    ctx.Done(),
	})
	if err != nil {
		return 0, err
	}
	if res.Interrupted {
		return 0, ctx.Err()
	}
	return res.NormalizedLifetime, nil
}

// Fig7Cells decomposes Figure 7 — lifetime under BPA as the SWR share of
// the spare capacity sweeps, per wear-leveling substrate, with the spare
// budget fixed at 10% — into one cell per (wear leveler, SWR percent)
// combination, keyed "fig7/<wl>/<percent>". It panics on a percent
// outside [0, 100].
func Fig7Cells(s Setup, swrPercents []int, wls []string) []runner.Cell[Fig7Row] {
	p := s.Profile()
	var cells []runner.Cell[Fig7Row]
	for _, wl := range wls {
		for _, pct := range swrPercents {
			if pct < 0 || pct > 100 {
				panic(fmt.Sprintf("experiments: Fig7 SWR percent %d out of [0, 100]", pct))
			}
			key := fmt.Sprintf("fig7/%s/%d", wl, pct)
			cells = append(cells, runner.Cell[Fig7Row]{
				Key:         key,
				Fingerprint: s.CellFingerprint(key),
				Run: func(ctx context.Context) (Fig7Row, error) {
					opts := spare.DefaultMaxWEOptions()
					opts.SWRFraction = float64(pct) / 100
					nl, err := s.runBPA(ctx, p, spare.NewMaxWE(p, opts), wl)
					if err != nil {
						return Fig7Row{}, err
					}
					return Fig7Row{WL: wl, SWRPercent: pct, Normalized: nl}, nil
				},
			})
		}
	}
	return cells
}

// Fig7FromResults assembles completed Fig7 cells back into Figure 7's row
// order (wear levelers outer, SWR percents inner). Cells missing from
// results — failed or not yet computed — are skipped.
func Fig7FromResults(results map[string]Fig7Row, swrPercents []int, wls []string) []Fig7Row {
	var rows []Fig7Row
	for _, wl := range wls {
		for _, pct := range swrPercents {
			if row, ok := results[fmt.Sprintf("fig7/%s/%d", wl, pct)]; ok {
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// Fig8Cells decomposes Figure 8 — the three spare schemes under BPA
// across the four wear-leveling substrates — into one cell per (wear
// leveler, spare scheme) combination, keyed "fig8/<wl>/<scheme>".
func Fig8Cells(s Setup) []runner.Cell[Fig8Row] {
	p := s.Profile()
	var cells []runner.Cell[Fig8Row]
	for _, wl := range WLNames() {
		for _, scheme := range SchemeNames() {
			key := fmt.Sprintf("fig8/%s/%s", wl, scheme)
			cells = append(cells, runner.Cell[Fig8Row]{
				Key:         key,
				Fingerprint: s.CellFingerprint(key),
				Run: func(ctx context.Context) (Fig8Row, error) {
					nl, err := s.runBPA(ctx, p, newScheme(scheme, p, s.Seed), wl)
					if err != nil {
						return Fig8Row{}, err
					}
					return Fig8Row{WL: wl, Scheme: scheme, Normalized: nl}, nil
				},
			})
		}
	}
	return cells
}

// Fig7Sweep drives the Fig7 cells through the sweep supervisor — with
// whatever parallelism, checkpointing and retry policy cfg carries — and
// assembles the completed rows. The report is returned alongside so
// callers can surface interruption and per-cell failures.
func Fig7Sweep(ctx context.Context, cfg runner.Config, s Setup, swrPercents []int, wls []string) ([]Fig7Row, runner.Report[Fig7Row], error) {
	rep, err := runner.Run(ctx, cfg, Fig7Cells(s, swrPercents, wls))
	if err != nil {
		return nil, rep, err
	}
	return Fig7FromResults(rep.Results, swrPercents, wls), rep, nil
}

// Fig8Sweep is Fig7Sweep's counterpart for the Figure 8 cells; it also
// recomputes the per-scheme geometric means over the completed rows.
func Fig8Sweep(ctx context.Context, cfg runner.Config, s Setup) ([]Fig8Row, map[string]float64, runner.Report[Fig8Row], error) {
	rep, err := runner.Run(ctx, cfg, Fig8Cells(s))
	if err != nil {
		return nil, nil, rep, err
	}
	rows, gmeans := Fig8FromResults(rep.Results)
	return rows, gmeans, rep, nil
}

// Fig8FromResults assembles completed Fig8 cells back into Figure 8's row
// order and computes the per-scheme geometric means (the paper's Gmean
// group) over the rows present. Cells missing from results are skipped
// (their scheme's gmean then covers fewer wear levelers).
func Fig8FromResults(results map[string]Fig8Row) ([]Fig8Row, map[string]float64) {
	var rows []Fig8Row
	perScheme := map[string][]float64{}
	for _, wl := range WLNames() {
		for _, scheme := range SchemeNames() {
			row, ok := results[fmt.Sprintf("fig8/%s/%s", wl, scheme)]
			if !ok {
				continue
			}
			rows = append(rows, row)
			perScheme[scheme] = append(perScheme[scheme], row.Normalized)
		}
	}
	gmeans := map[string]float64{}
	for scheme, vals := range perScheme {
		gmeans[scheme] = stats.GeoMean(vals)
	}
	return rows, gmeans
}

// Fig7Table renders Figure 7's rows as one table, the one internal/artifacts
// builds for cmd/figures and the nvmd fig7 jobs return.
func Fig7Table(rows []Fig7Row) *report.Table {
	t := report.NewTable("Figure 7 — normalized lifetime under BPA vs SWR percentage",
		"wear leveling", "swr %", "normalized lifetime")
	for _, r := range rows {
		t.AddRow(r.WL, r.SWRPercent, r.Normalized)
	}
	return t
}

// Fig8Table renders Figure 8's rows followed by one gmean row per scheme
// present in gmeans, in SchemeNames order.
func Fig8Table(rows []Fig8Row, gmeans map[string]float64) *report.Table {
	t := report.NewTable("Figure 8 — spare-scheme comparison under BPA",
		"wear leveling", "scheme", "normalized lifetime")
	for _, r := range rows {
		t.AddRow(r.WL, r.Scheme, r.Normalized)
	}
	for _, scheme := range SchemeNames() {
		if g, ok := gmeans[scheme]; ok {
			t.AddRow("gmean", scheme, g)
		}
	}
	return t
}
