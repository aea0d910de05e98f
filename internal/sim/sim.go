// Package sim is the NVMsim reproduction: the discrete lifetime simulator
// the paper evaluates with (Section 5.1). It couples an attack's logical
// write stream, a wear-leveling substrate, a spare-line replacement scheme
// and the physical device, and measures how many user writes the stack
// serves before the device fails.
//
// The primary engine simulates every write. Because lifetime is reported
// normalized (user writes / Σ line endurance) it is scale-invariant, so
// experiments run on scaled-down profiles (tens of thousands of lines,
// thousands of writes per line) that the per-write engine handles in
// milliseconds to seconds.
//
// RunDetailed runs every config on one epoch driver, runEpochs (batch.go),
// which owns the MaxUserWrites cap, the Config.Done poll and the epoch
// size for three routes: the per-write route, generalEpoch driving a
// Stepper, for fault plans and attacks without a batch generator; and
// the batched struct-of-arrays loops of batch.go for the rest, unleveled
// (runBatchedDirect) or leveled (runBatchedLeveled). Every route resolves
// a slot's line through the engine's bind, the scheme's live slot→line
// table (spare.Scheme.Bindings) itself, not a copy. Every physical write
// outside the batched loops' inline budget check goes through
// engine.WriteSlot, and every replacement through engine.replace, the one
// place the engine calls the scheme's OnWearOut and fetches the table
// again. Tests cross-validate every route against an independent in-test
// per-write engine bit for bit.
package sim

import (
	"errors"
	"fmt"

	"maxwe/internal/attack"
	"maxwe/internal/device"
	"maxwe/internal/endurance"
	"maxwe/internal/faultinject"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
)

// EngineSchemaVersion versions the observable semantics of the
// simulation engine — the mapping from a configuration to its bit-exact
// result. It is baked into every content-addressed cache key
// (internal/memo), so bump it whenever a change alters any computed
// result (engine algorithms, scheme or leveler behavior, RNG streams,
// result fields): stale entries then miss instead of being served.
// Pure refactors that keep results bit-identical — the norm in this
// repository, enforced by the cross-validation tests — do not bump it.
const EngineSchemaVersion = 1

// Config assembles one simulation run. Profile, Scheme and Attack are
// mandatory. Leveler is optional: nil means no wear leveling, with the
// attack addressing the scheme's (possibly shrinking) user space directly —
// the only mode that supports the PCD scheme, whose capacity changes over
// time.
type Config struct {
	Profile *endurance.Profile
	Scheme  spare.Scheme
	Leveler wearlevel.Leveler
	Attack  attack.Attack

	// MaxUserWrites caps the run (0 = no cap). The engine terminates
	// regardless because every user write consumes at least one unit of
	// finite device budget; the cap exists for truncated experiments.
	MaxUserWrites int64

	// Faults, when non-nil and enabled, injects the configured fault plan
	// into every physical write (see internal/faultinject and faults.go).
	// A nil or all-zero plan is a strict no-op: the engine takes the
	// exact pre-fault write path.
	Faults *faultinject.Plan
	// Retry bounds the engine's response to transient write failures.
	// The zero value selects faultinject.DefaultRetryPolicy. Ignored
	// unless Faults is enabled.
	Retry faultinject.RetryPolicy

	// Done, when non-nil, makes the run cancelable: the engine polls the
	// channel every 1024 user writes and stops early once it is closed,
	// returning the partial result with Interrupted set. Every loop takes
	// the same route either way; Done only adds the poll.
	Done <-chan struct{}
}

// Result reports one lifetime measurement. Results are checkpointed and
// fingerprinted as JSON by the runner and nvmd, so every field pins its
// wire name explicitly (the maxwelint jsonschema rule enforces this).
type Result struct {
	// UserWrites is the number of user writes served before failure.
	UserWrites int64 `json:"UserWrites"`
	// DeviceWrites counts all physical writes, including wear-leveling
	// movement and replacement redirections.
	DeviceWrites int64 `json:"DeviceWrites"`
	// NormalizedLifetime is UserWrites / Σ line endurance — the paper's
	// lifetime metric.
	NormalizedLifetime float64 `json:"NormalizedLifetime"`
	// WriteAmplification is DeviceWrites / UserWrites (1.0 when no
	// leveler runs).
	WriteAmplification float64 `json:"WriteAmplification"`
	// WornLines is how many physical lines wore out.
	WornLines int `json:"WornLines"`
	// SparesUsed is how many spare allocations the scheme performed.
	SparesUsed int `json:"SparesUsed"`
	// Failed is true when the device actually failed; false when the run
	// stopped at MaxUserWrites.
	Failed bool `json:"Failed"`
	// Interrupted is true when the run was canceled through Config.Done
	// before failing or reaching MaxUserWrites.
	Interrupted bool `json:"Interrupted"`
	// Faults counts injected faults per class (all zero when no fault
	// plan ran).
	Faults faultinject.Counters `json:"Faults"`
}

var (
	errNilProfile = errors.New("sim: Config.Profile is nil")
	errNilScheme  = errors.New("sim: Config.Scheme is nil")
	errNilAttack  = errors.New("sim: Config.Attack is nil")
)

func (c Config) validate() error {
	if c.Profile == nil {
		return errNilProfile
	}
	if c.Scheme == nil {
		return errNilScheme
	}
	if c.Attack == nil {
		return errNilAttack
	}
	if c.Leveler != nil {
		if _, pcd := c.Scheme.(*spare.PCDScheme); pcd {
			return errors.New("sim: PCD's shrinking capacity requires Leveler == nil")
		}
		if c.Leveler.LogicalLines() > c.Scheme.UserLines() {
			return fmt.Errorf("sim: leveler logical space %d exceeds scheme user space %d",
				c.Leveler.LogicalLines(), c.Scheme.UserLines())
		}
	}
	if c.MaxUserWrites < 0 {
		return errors.New("sim: MaxUserWrites must be >= 0")
	}
	if c.Faults.Enabled() && c.Retry != (faultinject.RetryPolicy{}) {
		if err := c.Retry.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// engine wires the device and scheme together; it implements
// wearlevel.Mover so relocation traffic flows through the same wear-out
// handling as user traffic.
type engine struct {
	core   *device.Core
	scheme spare.Scheme
	// bind is the scheme's live slot→line table, not a copy. It changes
	// only inside OnWearOut, which replace alone calls.
	bind   []int32
	failed bool

	// Fault layer (nil faults = the exact pre-fault write path; see
	// faults.go).
	faults *faultinject.Plan
	retry  faultinject.RetryPolicy
	ctr    faultinject.Counters
}

var _ wearlevel.Mover = (*engine)(nil)

// newEngine assembles the write engine, arming the fault layer only when
// the config carries an enabled plan.
func newEngine(cfg Config, core *device.Core) *engine {
	e := &engine{core: core, scheme: cfg.Scheme, bind: cfg.Scheme.Bindings()}
	if cfg.Faults.Enabled() {
		e.faults = cfg.Faults
		e.retry = cfg.Retry
		if e.retry == (faultinject.RetryPolicy{}) {
			e.retry = faultinject.DefaultRetryPolicy()
		}
	}
	return e
}

// WriteSlot performs one physical write backing user slot u. On a wear-out
// transition it runs the scheme's replacement procedure; if the scheme is
// out of spares the device has failed and WriteSlot returns false.
func (e *engine) WriteSlot(u int) bool {
	if e.faults != nil {
		return e.writeSlotFaulty(u)
	}
	if e.core.Write(int(e.bind[u])) {
		return e.replace(u)
	}
	return true
}

// replace runs the scheme's replacement procedure for slot u, whose line
// has just worn out, and fetches the table again, since PCD's shrink cuts
// it. It returns false, with the engine marked failed, when the scheme is
// out of spares.
func (e *engine) replace(u int) bool {
	ok := e.scheme.OnWearOut(u)
	e.bind = e.scheme.Bindings()
	if !ok {
		e.failed = true
	}
	return ok
}

// Run executes the configured simulation until device failure or the
// user-write cap.
func Run(cfg Config) (Result, error) {
	res, _, err := RunDetailed(cfg)
	return res, err
}

// RunDetailed is Run plus the simulated device in its final wear state,
// for analyses that need per-line wear (histograms, spread metrics).
func RunDetailed(cfg Config) (Result, *device.Device, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, nil, err
	}
	s := newStepper(cfg)
	dev, e := s.dev, s.e

	var userWrites int64
	var interrupted bool
	ba, batch := cfg.Attack.(attack.BatchAttack)
	switch {
	case cfg.Faults.Enabled() || !batch:
		// A fault plan draws an outcome for every physical write, user
		// and movement traffic alike, which only the per-write route
		// does; attacks that cannot emit a batch run there too.
		userWrites, interrupted = runEpochs(cfg, func(size int) (int, bool) {
			return generalEpoch(s, cfg.Attack, size)
		})
	case cfg.Leveler == nil:
		userWrites, interrupted = runBatchedDirect(cfg, e, ba)
		dev.Core().Total += userWrites
	default:
		userWrites, interrupted = runBatchedLeveled(cfg, e, ba)
		dev.Core().Total += userWrites
	}
	return buildResult(cfg, dev, userWrites, e, interrupted), dev, nil
}

func buildResult(cfg Config, dev *device.Device, userWrites int64, e *engine, interrupted bool) Result {
	r := Result{
		UserWrites:         userWrites,
		DeviceWrites:       dev.TotalWrites(),
		NormalizedLifetime: float64(userWrites) / cfg.Profile.Sum(),
		WornLines:          dev.WornCount(),
		SparesUsed:         cfg.Scheme.SpareLinesUsed(),
		Failed:             e.failed,
		Interrupted:        interrupted,
		Faults:             e.ctr,
	}
	if userWrites > 0 {
		r.WriteAmplification = float64(dev.TotalWrites()) / float64(userWrites)
	}
	return r
}
