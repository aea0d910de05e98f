// stepper.go provides the trace-driven counterpart of Run: instead of an
// Attack generating addresses internally, the caller feeds logical write
// addresses one at a time. This is how external workloads (file traces, a
// DRAM buffer's write-backs, a fuzzer) drive the simulated stack, and how
// RunDetailed's per-write route (generalEpoch) drives it too.
package sim

import (
	"maxwe/internal/attack"
	"maxwe/internal/device"
)

// Stepper drives the device + leveler + scheme stack one user write at a
// time. Construct with NewStepper; the Config's Attack field is ignored —
// the caller controls the write stream. Config.MaxUserWrites is honored
// exactly as in Run: once the cap is reached, Write rejects further
// writes, so external drivers cannot overrun truncated experiments.
type Stepper struct {
	cfg        Config
	dev        *device.Device
	e          *engine
	userWrites int64
}

// NewStepper validates the configuration (Attack excepted) and assembles
// a fresh stack.
func NewStepper(cfg Config) (*Stepper, error) {
	check := cfg
	if check.Attack == nil {
		// Satisfy validation; the attack is never used.
		check.Attack = nopAttack{}
	}
	if err := check.validate(); err != nil {
		return nil, err
	}
	return newStepper(cfg), nil
}

// newStepper assembles a fresh stack for an already validated cfg.
func newStepper(cfg Config) *Stepper {
	dev := device.New(cfg.Profile)
	return &Stepper{cfg: cfg, dev: dev, e: newEngine(cfg, dev.Core())}
}

type nopAttack struct{}

func (nopAttack) Name() string   { return "external" }
func (nopAttack) Next(n int) int { return 0 }

// LogicalLines returns the current size of the logical address space the
// caller should draw addresses from (it shrinks under PCD).
func (s *Stepper) LogicalLines() int {
	if s.cfg.Leveler != nil {
		return s.cfg.Leveler.LogicalLines()
	}
	return len(s.e.bind)
}

// Failed reports whether the device has failed; further writes are
// rejected.
func (s *Stepper) Failed() bool { return s.e.failed }

// Write performs one user write to logical line lla (non-negative;
// addresses beyond the logical space fold modulo its size). It returns
// false once the device has failed (including when this very write
// triggered the unrecoverable wear-out — the write itself still counted,
// matching Run's accounting) or once Config.MaxUserWrites writes have
// been served. A logical space that has shrunk to nothing fails the
// device without serving the write.
func (s *Stepper) Write(lla int) bool {
	if s.e.failed {
		return false
	}
	if s.cfg.MaxUserWrites > 0 && s.userWrites >= s.cfg.MaxUserWrites {
		return false
	}
	n := s.LogicalLines()
	if n == 0 {
		s.e.failed = true
		return false
	}
	if lla >= n {
		lla %= n
	}
	return s.serve(lla)
}

// serve is Write past its guards: one user write to a logical line below
// LogicalLines on a stack that has neither failed nor reached its cap.
// The write that exhausts a line's budget still completes (the
// replacement procedure runs afterwards), so it counts as served even
// when the device fails to recover from it.
func (s *Stepper) serve(lla int) bool {
	s.userWrites++
	if s.cfg.Leveler == nil {
		return s.e.WriteSlot(lla)
	}
	if !s.e.WriteSlot(s.cfg.Leveler.Translate(lla)) {
		return false
	}
	return s.cfg.Leveler.OnWrite(lla, s.e)
}

// generalEpoch is the per-write route's epoch for runEpochs: size writes,
// each address drawn with Next at the logical space current when it is
// drawn, for fault plans (which draw an outcome for every physical
// write) and attacks without NextBatch. An empty space fails the device
// before a draw. Write's other guards cannot fire here (runEpochs sizes
// the epoch within the cap, the loop returns at the first failure, and
// Next draws below n), so each write goes straight to serve: through
// Write, the BPA/PS-random fault cell of BenchmarkPerWriteRoute measured
// about a tenth slower per write.
func generalEpoch(s *Stepper, att attack.Attack, size int) (consumed int, ok bool) {
	for i := 0; i < size; i++ {
		n := s.LogicalLines()
		if n == 0 {
			s.e.failed = true
			return i, false
		}
		if !s.serve(att.Next(n)) {
			return i + 1, false
		}
	}
	return size, true
}

// Result summarizes the writes served so far (callable at any point).
func (s *Stepper) Result() Result {
	return buildResult(s.cfg, s.dev, s.userWrites, s.e, false)
}

// Device exposes the underlying device for wear inspection.
func (s *Stepper) Device() *device.Device { return s.dev }
