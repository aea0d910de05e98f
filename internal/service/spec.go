// spec.go defines the job specification the nvmd HTTP API accepts: which
// sweep to run (a Figure 7 grid, the Figure 8 matrix, or a custom list of
// fully described simulation cells), at what scale, and under what runner
// policy (parallelism, retries, per-cell deadline). Specs are normalized
// to a canonical form at submission so that the same experiment always
// produces the same checkpoint fingerprint — the property that lets a
// restarted daemon resume a half-finished job bit-identically.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"maxwe"
	"maxwe/internal/experiments"
	"maxwe/internal/wearlevel"
)

// Job kinds accepted by the service.
const (
	// KindFig7 sweeps the paper's Figure 7 grid (wear levelers × SWR
	// percents under BPA).
	KindFig7 = "fig7"
	// KindFig8 runs the paper's Figure 8 matrix (wear levelers × spare
	// schemes under BPA) plus the per-scheme geometric means.
	KindFig8 = "fig8"
	// KindCells runs a custom list of fully described simulation cells,
	// each one complete maxwe.Config (fault plan included).
	KindCells = "cells"
)

// JobSpec describes one experiment job as submitted to POST /v1/jobs.
type JobSpec struct {
	// Kind selects the experiment shape: KindFig7, KindFig8 or KindCells.
	Kind string `json:"kind"`
	// Setup overrides the experiment scale for fig7/fig8 jobs; nil keeps
	// the paper's committed default scale. Ignored by cells jobs.
	Setup *SetupSpec `json:"setup,omitempty"`
	// SWRPercents is the Figure 7 x axis; nil selects the paper's
	// {0, 20, 60, 80, 90, 100}. Fig7 jobs only.
	SWRPercents []int `json:"swr_percents,omitempty"`
	// WLs lists the wear-leveling substrates of a fig7 job; nil selects
	// the paper's four.
	WLs []string `json:"wls,omitempty"`
	// Cells is the cell list of a cells job. Each cell carries a complete
	// simulation configuration, fault-plan options included.
	Cells []CellSpec `json:"cells,omitempty"`
	// Parallelism bounds how many cells of this job run concurrently on
	// the worker pool (0 = one worker per CPU, 1 = sequential). Results
	// are identical at every setting.
	Parallelism int `json:"parallelism,omitempty"`
	// Retries is how many additional deterministic attempts a failed cell
	// gets before its error is recorded.
	Retries int `json:"retries,omitempty"`
	// CellTimeoutMS bounds each cell attempt in milliseconds (0 = none).
	CellTimeoutMS int64 `json:"cell_timeout_ms,omitempty"`
	// Federated asks the daemon to dispatch this job's cells across its
	// worker cluster instead of computing them in-process. It is runner
	// policy, not experiment content: a daemon without a cluster (or
	// without Config.Dispatcher) runs the job locally, and the merged
	// result is byte-identical either way, so the flag is excluded from
	// the checkpoint fingerprint like Parallelism.
	Federated bool `json:"federated,omitempty"`
}

// SetupSpec is the JSON shape of experiments.Setup for fig7/fig8 jobs.
// Zero fields inherit the paper's default scale, so a tiny spec like
// {"regions": 64} is valid.
type SetupSpec struct {
	// Regions and LinesPerRegion fix the device geometry.
	Regions        int `json:"regions,omitempty"`
	LinesPerRegion int `json:"lines_per_region,omitempty"`
	// MeanEndurance is the scaled mean write budget per line.
	MeanEndurance float64 `json:"mean_endurance,omitempty"`
	// Profile names the endurance distribution: "linear" (default),
	// "power-law" or "lognormal".
	Profile string `json:"profile,omitempty"`
	// VariationQ is the max/min endurance ratio (paper: 50).
	VariationQ float64 `json:"variation_q,omitempty"`
	// Psi is the wear-leveling remap period in writes.
	Psi int `json:"psi,omitempty"`
	// Seed drives every random choice of the experiment.
	Seed uint64 `json:"seed,omitempty"`
}

// CellSpec is one custom simulation cell of a cells job.
type CellSpec struct {
	// Key names the cell in checkpoints, events and results. It must be
	// unique within the job and stable across resubmissions.
	Key string `json:"key"`
	// Config is the complete simulated system, including the optional
	// fault-injection plan and retry policy.
	Config maxwe.Config `json:"config"`
}

// maxDeviceLines bounds the device a job may ask for, in lines
// (Regions × LinesPerRegion), for fig7/fig8 setups and every cell's
// config alike: 256 times the paper's default 512×32 scale. Every cell
// materializes per-line state for the whole device inside the daemon, so
// an unbounded geometry would let one spec exhaust its memory.
const maxDeviceLines = 1 << 22

// checkLines rejects a geometry whose line count exceeds maxDeviceLines,
// dividing instead of multiplying so a huge product cannot overflow.
// Non-positive dimensions pass here; they are errors of their own.
func checkLines(regions, linesPerRegion int) error {
	if regions > 0 && linesPerRegion > 0 && linesPerRegion > maxDeviceLines/regions {
		return fmt.Errorf("geometry %dx%d exceeds the %d-line limit", regions, linesPerRegion, maxDeviceLines)
	}
	return nil
}

// setup resolves the spec's scale against the paper defaults.
func (s *SetupSpec) setup() (experiments.Setup, error) {
	out := experiments.DefaultSetup()
	if s == nil {
		return out, nil
	}
	kind, err := experiments.ParseProfileKind(s.Profile)
	if err != nil {
		return out, fmt.Errorf("service: setup: %w", err)
	}
	out.ProfileKind = kind
	if s.Regions != 0 {
		out.Regions = s.Regions
	}
	if s.LinesPerRegion != 0 {
		out.LinesPerRegion = s.LinesPerRegion
	}
	if s.MeanEndurance != 0 {
		out.MeanEndurance = s.MeanEndurance
	}
	if s.VariationQ != 0 {
		out.VariationQ = s.VariationQ
	}
	if s.Psi != 0 {
		out.Psi = s.Psi
	}
	if s.Seed != 0 {
		out.Seed = s.Seed
	}
	if out.Regions <= 0 || out.LinesPerRegion <= 0 {
		return out, fmt.Errorf("service: setup: geometry %dx%d must be positive",
			out.Regions, out.LinesPerRegion)
	}
	if err := checkLines(out.Regions, out.LinesPerRegion); err != nil {
		return out, fmt.Errorf("service: setup: %w", err)
	}
	if out.MeanEndurance <= 0 {
		return out, fmt.Errorf("service: setup: mean endurance %v must be positive", out.MeanEndurance)
	}
	if out.VariationQ < 1 {
		return out, fmt.Errorf("service: setup: variation q %v must be >= 1", out.VariationQ)
	}
	if out.Psi <= 0 {
		return out, fmt.Errorf("service: setup: psi %d must be positive", out.Psi)
	}
	return out, nil
}

// normalize validates the spec and returns its canonical form: kind
// checked, grid axes defaulted to the paper's, and runner policy bounds
// enforced. Two specs that describe the same experiment normalize to the
// same value, which is what the checkpoint fingerprint hashes.
func (s JobSpec) normalize() (JobSpec, error) {
	switch s.Kind {
	case KindFig7:
		if len(s.SWRPercents) == 0 {
			s.SWRPercents = experiments.Fig7DefaultPercents()
		}
		for _, pct := range s.SWRPercents {
			if pct < 0 || pct > 100 {
				return s, fmt.Errorf("service: fig7 SWR percent %d out of [0, 100]", pct)
			}
		}
		if len(s.WLs) == 0 {
			s.WLs = experiments.WLNames()
		}
		known := map[string]bool{}
		for _, wl := range wearlevel.Names() {
			known[wl] = true
		}
		seen := map[string]bool{}
		for _, wl := range s.WLs {
			if !known[wl] {
				return s, fmt.Errorf("service: unknown wear leveler %q", wl)
			}
			if seen[wl] {
				return s, fmt.Errorf("service: duplicate wear leveler %q", wl)
			}
			seen[wl] = true
		}
		s.Cells = nil
	case KindFig8:
		s.SWRPercents, s.WLs, s.Cells = nil, nil, nil
	case KindCells:
		if len(s.Cells) == 0 {
			return s, fmt.Errorf("service: cells job needs at least one cell")
		}
		s.SWRPercents, s.WLs, s.Setup = nil, nil, nil
		seen := map[string]bool{}
		for i, c := range s.Cells {
			if c.Key == "" {
				return s, fmt.Errorf("service: cell %d has an empty key", i)
			}
			if seen[c.Key] {
				return s, fmt.Errorf("service: duplicate cell key %q", c.Key)
			}
			seen[c.Key] = true
			if err := checkLines(c.Config.Regions, c.Config.LinesPerRegion); err != nil {
				return s, fmt.Errorf("service: cell %q: %w", c.Key, err)
			}
		}
	default:
		return s, fmt.Errorf("service: unknown job kind %q (want %s, %s or %s)",
			s.Kind, KindFig7, KindFig8, KindCells)
	}
	if s.Kind != KindCells {
		if _, err := s.Setup.setup(); err != nil {
			return s, err
		}
	}
	if s.Parallelism < 0 {
		return s, fmt.Errorf("service: parallelism %d must be >= 0", s.Parallelism)
	}
	if s.Retries < 0 {
		return s, fmt.Errorf("service: retries %d must be >= 0", s.Retries)
	}
	if s.CellTimeoutMS < 0 {
		return s, fmt.Errorf("service: cell timeout %dms must be >= 0", s.CellTimeoutMS)
	}
	return s, nil
}

// cellCount returns how many sweep cells the normalized spec expands to.
func (s JobSpec) cellCount() int {
	switch s.Kind {
	case KindFig7:
		return len(s.SWRPercents) * len(s.WLs)
	case KindFig8:
		return len(experiments.WLNames()) * len(experiments.SchemeNames())
	default:
		return len(s.Cells)
	}
}

// cellTimeout converts the millisecond JSON field to a duration.
func (s JobSpec) cellTimeout() time.Duration {
	return time.Duration(s.CellTimeoutMS) * time.Millisecond
}

// fingerprint derives the checkpoint fingerprint of a normalized spec:
// a hash over the canonical JSON of everything that determines the cell
// values. Runner policy (parallelism, retries, timeout) is deliberately
// excluded — it cannot change results, and a resumed job may legitimately
// run under different worker counts.
func (s JobSpec) fingerprint() string {
	canon := s
	canon.Parallelism, canon.Retries, canon.CellTimeoutMS = 0, 0, 0
	canon.Federated = false
	raw, err := json.Marshal(canon)
	if err != nil {
		// Every field is a plain value; this is unreachable.
		panic(fmt.Errorf("service: marshal spec: %w", err))
	}
	sum := sha256.Sum256(raw)
	return "nvmd/v1/" + s.Kind + "/" + hex.EncodeToString(sum[:])
}
