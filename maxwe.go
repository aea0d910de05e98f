// Package maxwe is a library reproduction of "An Efficient Spare-Line
// Replacement Scheme to Enhance NVM Security" (Xu et al., DAC 2019).
//
// Non-volatile memories wear out, and their endurance varies strongly
// across the die. The paper shows that a trivially simple adversary — the
// Uniform Address Attack (UAA), which just writes every line in turn —
// collapses device lifetime to a few percent of ideal because the weakest
// lines die first and wear leveling cannot help a perfectly uniform
// workload. Its defense, Max-WE, reserves the weakest regions as spares,
// permanently pairs them with the next-weakest regions (strongest spare
// rescues weakest victim), and keeps a small dynamically allocated spare
// pool for everything else, tracked by a hybrid region/line mapping table
// that is ~85% smaller than a flat line-level table.
//
// The package exposes the whole evaluation stack: endurance modeling,
// the NVMsim-style lifetime simulator, attacks (UAA, birthday-paradox,
// hammer, benign), wear-leveling substrates (Start-Gap, TLSR, PCM-S, BWL,
// WAWL), spare-line schemes (Max-WE, PCD, PS variants), the closed-form
// lifetime model, and the mapping-overhead calculator.
//
// Quick start:
//
//	cfg := maxwe.DefaultConfig()
//	sys, err := maxwe.New(cfg)
//	if err != nil { ... }
//	res := sys.RunLifetime()
//	fmt.Printf("normalized lifetime: %.3f\n", res.NormalizedLifetime)
//
// See examples/ for full programs, and cmd/figures (built on
// internal/artifacts) for the driver that regenerates every table and
// figure of the paper.
package maxwe

import (
	"context"
	"fmt"

	"maxwe/internal/analytic"
	"maxwe/internal/attack"
	"maxwe/internal/detect"
	"maxwe/internal/endurance"
	"maxwe/internal/faultinject"
	"maxwe/internal/mapping"
	"maxwe/internal/memo"
	"maxwe/internal/runner"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
	"maxwe/internal/xrand"
)

// Result is the outcome of a lifetime run. See the field documentation in
// the simulator for the exact semantics of each counter.
type Result = sim.Result

// FaultConfig describes a deterministic fault-injection plan (transient
// write failures, stuck-at line deaths, metadata corruption). The zero
// value disables injection entirely. See internal/faultinject.
type FaultConfig = faultinject.Config

// FaultCounters reports injected faults per class; it appears in
// Result.Faults (all zero when no faults are configured).
type FaultCounters = faultinject.Counters

// RetryPolicy bounds the simulated controller's response to transient
// write failures. The zero value selects DefaultRetryPolicy.
type RetryPolicy = faultinject.RetryPolicy

// DefaultRetryPolicy returns the default transient-fault retry policy
// (4 retries, exponential backoff 1, 2, 4, 8).
func DefaultRetryPolicy() RetryPolicy { return faultinject.DefaultRetryPolicy() }

// AnalyticParams exposes the paper's closed-form linear lifetime model
// (Equations 3-8).
type AnalyticParams = analytic.Params

// Overhead exposes the Section 4.4 mapping-table storage model.
type Overhead = mapping.Overhead

// Monitor exposes the online write-pattern attack detector; feed it the
// logical write stream you feed a Stepper. See internal/detect for the
// verdict semantics.
type Monitor = detect.Monitor

// MonitorConfig tunes a Monitor; the zero value selects the defaults.
type MonitorConfig = detect.Config

// Verdict classifications produced by a Monitor.
const (
	VerdictBenign     = detect.Benign
	VerdictUAALike    = detect.UAALike
	VerdictHammerLike = detect.HammerLike
)

// NewMonitor builds an attack detector.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return detect.NewMonitor(cfg) }

// PaperOverhead returns the 1 GB / 2048-region / 10% / 90% configuration
// whose mapping cost the paper reports as 0.16 MB vs 1.1 MB.
func PaperOverhead() Overhead { return mapping.PaperOverhead() }

// Config describes a complete simulated system. Construct with
// DefaultConfig and override fields as needed.
type Config struct {
	// Regions and LinesPerRegion set the device geometry. The json tags
	// here and below pin today's wire names explicitly; Config is hashed
	// into nvmd job fingerprints, so a silent rename would orphan every
	// stored checkpoint (see the maxwelint jsonschema rule).
	Regions        int `json:"Regions"`
	LinesPerRegion int `json:"LinesPerRegion"`
	// MeanEndurance is the mean per-line write budget. Simulations are
	// reported normalized, so use a scaled-down value (thousands) rather
	// than the physical 1e8.
	MeanEndurance float64 `json:"MeanEndurance"`
	// VariationQ is the max/min endurance ratio q (the paper evaluates
	// q = 50).
	VariationQ float64 `json:"VariationQ"`
	// LinearProfile selects the paper's linear endurance distribution;
	// false samples the Equation 1-2 truncated power-law model instead.
	LinearProfile bool `json:"LinearProfile"`

	// Scheme is the spare-line replacement scheme: "max-we", "pcd",
	// "ps-random", "ps-worst", "ps-best" or "none".
	Scheme string `json:"Scheme"`
	// SpareFraction is the spare share of total capacity (paper: 0.10).
	SpareFraction float64 `json:"SpareFraction"`
	// SWRFraction is the region-level share of the spare capacity
	// (paper: 0.90; Max-WE only).
	SWRFraction float64 `json:"SWRFraction"`

	// WearLeveling selects the substrate: "" (no leveler; required for
	// "pcd"), "identity", "start-gap", "partitioned-start-gap", "tlsr",
	// "pcm-s", "bwl", "wawl", "twl", "stress-aware",
	// "security-refresh" or "tlsr-exact" (the last two need a
	// power-of-two user space).
	WearLeveling string `json:"WearLeveling"`
	// Psi is the wear-leveling remap period in writes.
	Psi int `json:"Psi"`

	// Attack is "uaa", "partial-uaa", "bpa", "repeated", "random" or
	// "hotcold".
	Attack string `json:"Attack"`
	// AttackCoverage is the reachable fraction of the address space for
	// "partial-uaa" (Section 3.2 measures ~0.95 on Linux). Ignored by
	// the other attacks.
	AttackCoverage float64 `json:"AttackCoverage"`

	// MaxUserWrites truncates the run (0 = run to device failure).
	MaxUserWrites int64 `json:"MaxUserWrites"`
	// Seed makes the whole run reproducible.
	Seed uint64 `json:"Seed"`

	// Faults configures deterministic fault injection. The zero value is
	// a strict no-op: the run is bit-identical to one without a fault
	// layer.
	Faults FaultConfig `json:"Faults"`
	// Retry bounds recovery from transient write faults; the zero value
	// selects DefaultRetryPolicy. Ignored unless Faults is enabled.
	Retry RetryPolicy `json:"Retry"`
}

// DefaultConfig returns the paper's evaluation operating point on a
// scaled device: Max-WE with 10% spares and 90% SWRs under UAA, q = 50.
func DefaultConfig() Config {
	return Config{
		Regions:        512,
		LinesPerRegion: 32,
		MeanEndurance:  2000,
		VariationQ:     50,
		LinearProfile:  true,
		Scheme:         "max-we",
		SpareFraction:  0.10,
		SWRFraction:    0.90,
		WearLeveling:   "",
		Psi:            32,
		Attack:         "uaa",
		AttackCoverage: 0.95,
	}
}

// Fingerprint is the content-address of the Result this Config computes:
// the canonical Config JSON (wire names pinned by the jsonschema lint
// rule) hashed under a scope carrying sim.EngineSchemaVersion. Equal
// fingerprints imply byte-identical Results — RunLifetime is
// deterministic in Config alone — which is what lets the memo cache
// serve a hit in place of the computation, across processes and jobs.
func (c Config) Fingerprint() string {
	return memo.Fingerprint(fmt.Sprintf("maxwe-config/v%d", sim.EngineSchemaVersion), c)
}

// System is a fully assembled device + scheme + leveler + attack stack,
// ready to run. A System is single-use: RunLifetime consumes the wear
// state. Build another with New to re-run.
type System struct {
	cfg     Config
	profile *endurance.Profile
	scheme  spare.Scheme
	leveler wearlevel.Leveler
	attack  attack.Attack
	faults  *faultinject.Plan
}

// New validates cfg and assembles a System.
func New(cfg Config) (*System, error) {
	if cfg.Regions <= 0 || cfg.LinesPerRegion <= 0 {
		return nil, fmt.Errorf("maxwe: geometry %dx%d must be positive", cfg.Regions, cfg.LinesPerRegion)
	}
	if cfg.MeanEndurance <= 0 {
		return nil, fmt.Errorf("maxwe: MeanEndurance %v must be positive", cfg.MeanEndurance)
	}
	if cfg.VariationQ < 1 {
		return nil, fmt.Errorf("maxwe: VariationQ %v must be >= 1", cfg.VariationQ)
	}
	if cfg.SpareFraction < 0 || cfg.SpareFraction > 0.5 {
		return nil, fmt.Errorf("maxwe: SpareFraction %v outside [0, 0.5]", cfg.SpareFraction)
	}
	if cfg.SWRFraction < 0 || cfg.SWRFraction > 1 {
		return nil, fmt.Errorf("maxwe: SWRFraction %v outside [0, 1]", cfg.SWRFraction)
	}
	if cfg.Psi <= 0 {
		return nil, fmt.Errorf("maxwe: Psi %d must be positive", cfg.Psi)
	}

	s := &System{cfg: cfg}
	s.profile = buildProfile(cfg)

	var err error
	s.scheme, err = buildScheme(cfg, s.profile)
	if err != nil {
		return nil, err
	}
	s.leveler, err = buildLeveler(cfg, s.profile, s.scheme)
	if err != nil {
		return nil, err
	}
	s.attack, err = buildAttack(cfg)
	if err != nil {
		return nil, err
	}
	s.faults, err = faultinject.NewPlan(cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("maxwe: %w", err)
	}
	if cfg.Faults.Enabled() && cfg.Retry != (RetryPolicy{}) {
		if err := cfg.Retry.Validate(); err != nil {
			return nil, fmt.Errorf("maxwe: %w", err)
		}
	}
	return s, nil
}

func buildProfile(cfg Config) *endurance.Profile {
	var p *endurance.Profile
	if cfg.LinearProfile {
		el := 2 * cfg.MeanEndurance / (1 + cfg.VariationQ)
		p = endurance.Linear(cfg.Regions, cfg.LinesPerRegion, el, el*cfg.VariationQ)
	} else {
		m := endurance.DefaultModel()
		m.TruncSigma = m.TruncSigmaForRatio(cfg.VariationQ)
		p = m.Sample(cfg.Regions, cfg.LinesPerRegion, xrand.New(cfg.Seed))
	}
	return p.ScaleToMean(cfg.MeanEndurance).Shuffled(xrand.New(cfg.Seed + 1))
}

func buildScheme(cfg Config, p *endurance.Profile) (spare.Scheme, error) {
	spareLines := int(cfg.SpareFraction * float64(p.Lines()))
	switch cfg.Scheme {
	case "max-we":
		opts := spare.DefaultMaxWEOptions()
		opts.SpareFraction = cfg.SpareFraction
		opts.SWRFraction = cfg.SWRFraction
		return spare.NewMaxWE(p, opts), nil
	case "pcd":
		return spare.NewPCD(p.Lines(), p.Lines()-spareLines), nil
	case "ps-random":
		return spare.NewPS(p, spareLines, spare.PSRandom, xrand.New(cfg.Seed+2)), nil
	case "ps-worst":
		return spare.NewPS(p, spareLines, spare.PSWorst, nil), nil
	case "ps-best":
		return spare.NewPS(p, spareLines, spare.PSBest, nil), nil
	case "none":
		return spare.NewNone(p.Lines()), nil
	default:
		return nil, fmt.Errorf("maxwe: unknown scheme %q", cfg.Scheme)
	}
}

func buildLeveler(cfg Config, p *endurance.Profile, sch spare.Scheme) (wearlevel.Leveler, error) {
	if cfg.WearLeveling == "" {
		return nil, nil
	}
	if cfg.Scheme == "pcd" {
		return nil, fmt.Errorf("maxwe: scheme %q requires WearLeveling == \"\" (its capacity shrinks)", cfg.Scheme)
	}
	metrics := func() []float64 { return spare.SlotMetrics(sch, p) }
	lev, err := wearlevel.New(cfg.WearLeveling, sch.UserLines(), metrics, cfg.Psi, xrand.New(cfg.Seed+3))
	if err != nil {
		return nil, fmt.Errorf("maxwe: %w", err)
	}
	return lev, nil
}

func buildAttack(cfg Config) (attack.Attack, error) {
	src := xrand.New(cfg.Seed + 4)
	switch cfg.Attack {
	case "uaa":
		return attack.NewUAA(), nil
	case "partial-uaa":
		if cfg.AttackCoverage <= 0 || cfg.AttackCoverage > 1 {
			return nil, fmt.Errorf("maxwe: AttackCoverage %v outside (0, 1]", cfg.AttackCoverage)
		}
		return attack.NewPartialUAA(cfg.AttackCoverage), nil
	case "bpa":
		return attack.DefaultBPA(src), nil
	case "repeated":
		return attack.NewRepeated(0), nil
	case "random":
		return attack.NewRandomUniform(src), nil
	case "hotcold":
		return attack.NewHotCold(cfg.Regions*cfg.LinesPerRegion, 1.1, src), nil
	default:
		return nil, fmt.Errorf("maxwe: unknown attack %q", cfg.Attack)
	}
}

// Profile exposes the device's endurance profile (read-only use).
func (s *System) Profile() *endurance.Profile { return s.profile }

// UserLines returns the user-visible capacity in lines.
func (s *System) UserLines() int { return s.scheme.UserLines() }

// IdealLifetime returns Σ line endurance, the normalization denominator.
func (s *System) IdealLifetime() float64 { return s.profile.Sum() }

// simConfig assembles the simulator configuration shared by every run
// mode, with done wiring cooperative cancellation (nil = uncancelable).
func (s *System) simConfig(done <-chan struct{}) sim.Config {
	return sim.Config{
		Profile:       s.profile,
		Scheme:        s.scheme,
		Leveler:       s.leveler,
		Attack:        s.attack,
		MaxUserWrites: s.cfg.MaxUserWrites,
		Faults:        s.faults,
		Retry:         s.cfg.Retry,
		Done:          done,
	}
}

// RunLifetime drives the configured attack against the system until the
// device fails (or MaxUserWrites is reached) and reports the lifetime.
// It consumes the system's wear state; build a fresh System to re-run.
func (s *System) RunLifetime() Result {
	return s.RunLifetimeCtx(context.Background())
}

// RunLifetimeCtx is RunLifetime with cooperative cancellation: when ctx
// is canceled mid-run, the simulation stops early and returns the partial
// result with Interrupted set (it does not error — partial lifetimes are
// still valid measurements of the writes served so far).
func (s *System) RunLifetimeCtx(ctx context.Context) Result {
	res, err := sim.Run(s.simConfig(ctx.Done()))
	if err != nil {
		// New validated everything sim.Run checks; reaching this is a
		// bug in the facade, not a user error.
		panic(fmt.Errorf("maxwe: sim rejected a validated config: %w", err))
	}
	return res
}

// Cell is the runner cell that computes c's lifetime under key, addressed
// by c's Fingerprint. Each Run builds a fresh System. A canceled run
// returns ctx's error instead of its partial result, so a sweep leaves
// the cell incomplete rather than recording a truncated lifetime.
func (c Config) Cell(key string) runner.Cell[Result] {
	return runner.Cell[Result]{
		Key:         key,
		Fingerprint: c.Fingerprint(),
		Run: func(ctx context.Context) (Result, error) {
			sys, err := New(c)
			if err != nil {
				return Result{}, err
			}
			res := sys.RunLifetimeCtx(ctx)
			if res.Interrupted {
				return Result{}, ctx.Err()
			}
			return res, nil
		},
	}
}

// RunLifetimeWithWear is RunLifetime plus a histogram of per-line wear at
// the end of the run: buckets equal-width bins of consumed-budget
// fraction over [0, 1], worn lines in the last bin. Useful for
// visualizing how evenly a scheme spread the attack.
func (s *System) RunLifetimeWithWear(buckets int) (Result, []int) {
	res, dev, err := sim.RunDetailed(s.simConfig(nil))
	if err != nil {
		// New validated everything sim checks; reaching this is a bug.
		panic(fmt.Errorf("maxwe: sim rejected a validated config: %w", err))
	}
	return res, dev.WearHistogram(buckets)
}

// Stepper converts the system into a trace-driven stack: instead of the
// configured attack generating addresses, the caller feeds logical write
// addresses one at a time (a file trace, a DRAM buffer's write-backs).
// Like RunLifetime, it consumes the system — use one or the other.
func (s *System) Stepper() *Stepper {
	cfg := s.simConfig(nil)
	cfg.Attack = nil // the caller controls the write stream
	st, err := sim.NewStepper(cfg)
	if err != nil {
		// New already validated this configuration.
		panic(fmt.Errorf("maxwe: sim rejected a validated config: %w", err))
	}
	return &Stepper{st: st}
}

// Stepper drives a System one user write at a time.
type Stepper struct {
	st *sim.Stepper
}

// LogicalLines returns the size of the logical space to draw addresses
// from (it can shrink under the "pcd" scheme).
func (s *Stepper) LogicalLines() int { return s.st.LogicalLines() }

// Write performs one user write to logical line lla (non-negative;
// values beyond the logical space fold modulo its size). It returns
// false once the device has failed or Config.MaxUserWrites writes have
// been served.
func (s *Stepper) Write(lla int) bool { return s.st.Write(lla) }

// Failed reports whether the device has failed.
func (s *Stepper) Failed() bool { return s.st.Failed() }

// Result summarizes the lifetime so far; callable at any point.
func (s *Stepper) Result() Result { return s.st.Result() }

// MappingOverhead returns the Section 4.4 storage model for this
// configuration's geometry and spare split.
func (s *System) MappingOverhead() Overhead {
	return Overhead{
		Lines:         s.profile.Lines(),
		Regions:       s.profile.Regions(),
		SpareFraction: s.cfg.SpareFraction,
		SWRFraction:   s.cfg.SWRFraction,
	}
}

// Analytic returns the closed-form linear-model parameters matching this
// configuration, for comparing simulated lifetimes against Equations 3-8.
func (s *System) Analytic() AnalyticParams {
	return analytic.FromPQ(float64(s.profile.Lines()), s.cfg.SpareFraction, s.cfg.VariationQ)
}
