// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5) on the scaled simulator: the rows that
// internal/artifacts renders into every table and figure (for cmd/figures,
// cmd/verify and the root benches) and that nvmd jobs return.
//
// All experiments are deterministic for a given Setup (seed included) and
// report the paper's metric: normalized lifetime = user writes served
// before failure / Σ line endurance.
package experiments

import (
	"fmt"
	"math"

	"maxwe/internal/attack"
	"maxwe/internal/endurance"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
	"maxwe/internal/xrand"
)

// Setup fixes the device scale and randomness of an experiment run. The
// paper simulates a 1 GB bank with 2048 regions and PCM-scale endurance;
// normalized lifetime is scale-invariant, so the default setup shrinks the
// device to keep per-write simulation fast while keeping the paper's
// region structure (see DESIGN.md).
type Setup struct {
	// Regions and LinesPerRegion fix the geometry.
	Regions        int
	LinesPerRegion int
	// MeanEndurance is the scaled mean write budget per line.
	MeanEndurance float64
	// ProfileKind selects the endurance distribution: ProfileLinear is
	// the paper's tractable linear model (its analysis, the 4.1% UAA
	// baseline and the q axis of Figure 5 are all stated in it);
	// ProfilePowerLaw samples the Equation 1-2 truncated power-law model.
	ProfileKind ProfileKind
	// VariationQ is the max/min endurance ratio (the paper's q = 50
	// operating point).
	VariationQ float64
	// Psi is the wear-leveling remap period in writes.
	Psi int
	// Seed drives every random choice (profile sampling, shuffling,
	// attacks, randomized wear leveling).
	Seed uint64
}

// ProfileKind selects the endurance distribution family of a Setup.
type ProfileKind int

const (
	// ProfileLinear is the linear EL..EH model of the paper's analysis.
	ProfileLinear ProfileKind = iota
	// ProfilePowerLaw is the Equation 1-2 truncated power-law model.
	ProfilePowerLaw
	// ProfileLogNormal is the lognormal sensitivity-check distribution,
	// truncated at the same q ratio.
	ProfileLogNormal
)

// String names the profile kind; the names round-trip through
// ParseProfileKind.
func (k ProfileKind) String() string {
	switch k {
	case ProfileLinear:
		return "linear"
	case ProfilePowerLaw:
		return "power-law"
	case ProfileLogNormal:
		return "lognormal"
	}
	return fmt.Sprintf("profile(%d)", int(k))
}

// ParseProfileKind resolves a profile kind by name ("linear", "power-law",
// "lognormal"); the empty string selects the paper's linear model. It is
// the inverse of ProfileKind.String, for configuration surfaces (the nvmd
// job API) that carry the kind as text.
func ParseProfileKind(name string) (ProfileKind, error) {
	switch name {
	case "", "linear":
		return ProfileLinear, nil
	case "power-law":
		return ProfilePowerLaw, nil
	case "lognormal":
		return ProfileLogNormal, nil
	}
	return 0, fmt.Errorf("experiments: unknown profile kind %q", name)
}

// DefaultSetup returns the configuration the committed benchmark numbers
// use: 512 regions x 32 lines, linear q=50 endurance, mean 2000 writes,
// psi 32.
func DefaultSetup() Setup {
	return Setup{
		Regions:        512,
		LinesPerRegion: 32,
		MeanEndurance:  2000,
		ProfileKind:    ProfileLinear,
		VariationQ:     50,
		Psi:            32,
		Seed:           20190602, // DAC'19 opened June 2, 2019
	}
}

// QuickSetup returns a small configuration for unit tests: 128 regions x
// 8 lines, mean endurance 300.
func QuickSetup() Setup {
	s := DefaultSetup()
	s.Regions = 128
	s.LinesPerRegion = 8
	s.MeanEndurance = 300
	return s
}

// Profile builds the endurance profile of the setup, scaled to
// MeanEndurance and spatially shuffled so weakness is not sorted by
// address.
func (s Setup) Profile() *endurance.Profile {
	var p *endurance.Profile
	switch s.ProfileKind {
	case ProfileLinear:
		q := s.VariationQ
		if q < 1 {
			panic(fmt.Sprintf("experiments: VariationQ %v must be >= 1", q))
		}
		// Mean of the linear EL..EH distribution is (EL+EH)/2; pick EL so
		// the mean matches before the exact rescale.
		el := 2 * s.MeanEndurance / (1 + q)
		p = endurance.Linear(s.Regions, s.LinesPerRegion, el, el*q)
	case ProfilePowerLaw:
		m := endurance.DefaultModel()
		m.TruncSigma = m.TruncSigmaForRatio(s.VariationQ)
		p = m.Sample(s.Regions, s.LinesPerRegion, xrand.New(s.Seed))
	case ProfileLogNormal:
		// sigmaLog chosen so ±2σ spans the q ratio; truncation enforces
		// the cap exactly.
		sigma := math.Log(s.VariationQ) / 4
		p = endurance.LogNormal(s.Regions, s.LinesPerRegion,
			s.MeanEndurance, sigma, s.VariationQ, xrand.New(s.Seed))
	default:
		panic(fmt.Sprintf("experiments: unknown profile kind %d", s.ProfileKind))
	}
	return p.ScaleToMean(s.MeanEndurance).Shuffled(xrand.New(s.Seed + 1))
}

// WLNames lists the wear-leveling substrates of the paper's Figures 7-8
// in the paper's order.
func WLNames() []string { return []string{"tlsr", "pcm-s", "bwl", "wawl"} }

// NewLeveler constructs the named wear-leveling substrate over scheme's
// user space (see wearlevel.New), panicking on a name or slot count the
// substrate cannot take. Endurance-aware schemes receive per-slot metrics
// derived from the manufacture-time region metric of each slot's base
// line.
func NewLeveler(name string, sch spare.Scheme, p *endurance.Profile, psi int, src *xrand.Source) wearlevel.Leveler {
	lev, err := newLeveler(name, sch, p, psi, src)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return lev
}

// newLeveler is NewLeveler returning the construction error.
func newLeveler(name string, sch spare.Scheme, p *endurance.Profile, psi int, src *xrand.Source) (wearlevel.Leveler, error) {
	metrics := func() []float64 { return spare.SlotMetrics(sch, p) }
	return wearlevel.New(name, sch.UserLines(), metrics, psi, src)
}

// runUAA runs the uniform address attack (no wear leveling, per the
// paper's observation that leveling is irrelevant under UAA) and returns
// the normalized lifetime.
func runUAA(p *endurance.Profile, sch spare.Scheme) float64 {
	res, err := sim.Run(sim.Config{Profile: p, Scheme: sch, Attack: attack.NewUAA()})
	if err != nil {
		panic(fmt.Errorf("experiments: sim rejected a validated config: %w", err))
	}
	return res.NormalizedLifetime
}

// ---------------------------------------------------------------------------
// Figure 6 — Max-WE lifetime under UAA vs spare-line percentage

// Fig6Row is one bar of Figure 6.
type Fig6Row struct {
	SparePercent int
	Normalized   float64
}

// Fig6 sweeps the spare-line percentage under UAA with Max-WE (90% SWRs).
// The paper's x axis is {0, 1, 10, 20, 30, 40, 50}.
func Fig6(s Setup, percents []int) []Fig6Row {
	p := s.Profile()
	out := make([]Fig6Row, 0, len(percents))
	for _, pct := range percents {
		if pct < 0 || pct > 50 {
			panic(fmt.Sprintf("experiments: Fig6 spare percent %d out of [0, 50]", pct))
		}
		opts := spare.DefaultMaxWEOptions()
		opts.SpareFraction = float64(pct) / 100
		sch := spare.NewMaxWE(p, opts)
		out = append(out, Fig6Row{SparePercent: pct, Normalized: runUAA(p, sch)})
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 7 — lifetime under BPA vs SWR percentage, per wear-leveling scheme

// Fig7Row is one point of Figure 7. Rows are serialized into nvmd
// results and runner checkpoints, so wire names are pinned explicitly.
type Fig7Row struct {
	WL         string  `json:"WL"`
	SWRPercent int     `json:"SWRPercent"`
	Normalized float64 `json:"Normalized"`
}

// Fig7DefaultPercents returns the paper's Figure 7 x axis — the SWR share
// of the spare capacity, in percent — shared by cmd/figures and the nvmd
// job defaults.
func Fig7DefaultPercents() []int { return []int{0, 20, 60, 80, 90, 100} }

// ---------------------------------------------------------------------------
// Figure 8 — spare-scheme comparison under BPA per wear-leveling scheme

// Fig8Row is one bar of Figure 8. Rows are serialized into nvmd
// results and runner checkpoints, so wire names are pinned explicitly.
type Fig8Row struct {
	WL         string  `json:"WL"`
	Scheme     string  `json:"Scheme"`
	Normalized float64 `json:"Normalized"`
}

// SchemeNames lists the spare schemes of Figure 8 in the paper's order.
// "pcd/ps" is realized as random physical sparing, which Ferreira et al.
// (and the paper) treat as equivalent to PCD's average behaviour.
func SchemeNames() []string { return []string{"ps-worst", "pcd/ps", "max-we"} }

// newScheme builds the named spare scheme with a 10% budget.
func newScheme(name string, p *endurance.Profile, seed uint64) spare.Scheme {
	spareLines := p.Lines() / 10
	switch name {
	case "max-we":
		return spare.NewMaxWE(p, spare.DefaultMaxWEOptions())
	case "pcd/ps":
		return spare.NewPS(p, spareLines, spare.PSRandom, xrand.New(seed+4))
	case "ps-worst":
		return spare.NewPS(p, spareLines, spare.PSWorst, nil)
	case "none":
		return spare.NewNone(p.Lines())
	default:
		panic(fmt.Sprintf("experiments: unknown spare scheme %q", name))
	}
}

// ---------------------------------------------------------------------------
// Section 5.3.1 — UAA lifetime table

// UAARow is one row of the Section 5.3.1 comparison.
type UAARow struct {
	Scheme     string
	Normalized float64
	// ImprovementX is the lifetime multiple over the unprotected device
	// (the paper reports 9.5X / 7.4X / 6.9X).
	ImprovementX float64
}

// TableUAA reproduces the Section 5.3.1 numbers: normalized lifetime and
// improvement factors of Max-WE, PCD/PS and PS-worst under UAA with 10%
// spares, plus the unprotected baseline.
func TableUAA(s Setup) []UAARow {
	p := s.Profile()
	base := runUAA(p, newScheme("none", p, s.Seed))
	rows := []UAARow{{Scheme: "none", Normalized: base, ImprovementX: 1}}
	for _, scheme := range SchemeNames() {
		nl := runUAA(p, newScheme(scheme, p, s.Seed))
		rows = append(rows, UAARow{Scheme: scheme, Normalized: nl, ImprovementX: nl / base})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 2 / Section 3.3.1 — remapping aggravates wear under UAA

// Fig2Result quantifies the remap-overhead demonstration: the device
// writes consumed per user write with and without a remapping scheme
// under UAA.
type Fig2Result struct {
	PlainAmplification   float64
	LeveledAmplification float64
	PlainLifetime        float64
	LeveledLifetime      float64
}

// Fig2 runs UAA with and without TLSR remapping on the unprotected device
// and reports amplification and lifetime, demonstrating Section 3.3.1's
// claim that remapping can only hurt a uniform attack.
func Fig2(s Setup) Fig2Result {
	p := s.Profile()
	plain, err := sim.Run(sim.Config{
		Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA(),
	})
	if err != nil {
		panic(fmt.Errorf("experiments: sim rejected a validated config: %w", err))
	}
	sch := spare.NewNone(p.Lines())
	leveled, err := sim.Run(sim.Config{
		Profile: p, Scheme: sch,
		Leveler: NewLeveler("tlsr", sch, p, s.Psi, xrand.New(s.Seed+5)),
		Attack:  attack.NewUAA(),
	})
	if err != nil {
		panic(fmt.Errorf("experiments: sim rejected a validated config: %w", err))
	}
	return Fig2Result{
		PlainAmplification:   plain.WriteAmplification,
		LeveledAmplification: leveled.WriteAmplification,
		PlainLifetime:        plain.NormalizedLifetime,
		LeveledLifetime:      leveled.NormalizedLifetime,
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md Section 4)

// AblationRow compares the full Max-WE design against one disabled
// strategy under UAA.
type AblationRow struct {
	Variant    string
	Normalized float64
}

// Ablations runs Max-WE under UAA with each design strategy disabled in
// turn, quantifying what weak-priority, weak-strong matching and
// strongest-spare-first allocation each contribute.
func Ablations(s Setup) []AblationRow {
	p := s.Profile()
	variants := []struct {
		name string
		mod  func(*spare.MaxWEOptions)
	}{
		{"full", func(*spare.MaxWEOptions) {}},
		{"random-spare-regions", func(o *spare.MaxWEOptions) {
			o.WeakPriority = false
			o.Rand = xrand.New(s.Seed + 6)
		}},
		{"in-order-matching", func(o *spare.MaxWEOptions) { o.WeakStrongMatching = false }},
		{"fifo-spare-alloc", func(o *spare.MaxWEOptions) { o.StrongestSpareFirst = false }},
	}
	out := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		opts := spare.DefaultMaxWEOptions()
		v.mod(&opts)
		sch := spare.NewMaxWE(p, opts)
		out = append(out, AblationRow{Variant: v.name, Normalized: runUAA(p, sch)})
	}
	return out
}
