// Package device models the physical NVM bank at line granularity: every
// line carries a finite write budget drawn from an endurance profile, the
// part of that budget still unspent, and a worn-out flag. The device is
// deliberately passive — it knows nothing about wear leveling, sparing or
// attacks; it just counts writes and reports wear-out transitions. All
// lifetime machinery composes on top of it (internal/sim).
//
// The wear state itself lives in a struct-of-arrays Core (core.go) so hot
// simulation loops can index the flat slices directly; Device is the
// bounds-checked view everyone else uses.
package device

import (
	"fmt"

	"maxwe/internal/endurance"
)

// Device is a line-granularity NVM bank. Construct with New.
type Device struct {
	profile *endurance.Profile
	core    Core
}

// New builds a device over the given endurance profile. The profile is
// retained by reference (it is read-only here).
func New(p *endurance.Profile) *Device {
	return &Device{profile: p, core: newCore(p)}
}

// Core returns the struct-of-arrays wear state backing this device. Hot
// loops that index it directly must preserve the invariants documented on
// Core; all Device accessors observe mutations made through the core.
func (d *Device) Core() *Core { return &d.core }

// Profile returns the endurance profile the device was built from.
func (d *Device) Profile() *endurance.Profile { return d.profile }

// Lines returns the number of physical lines.
func (d *Device) Lines() int { return d.profile.Lines() }

// Regions returns the number of regions.
func (d *Device) Regions() int { return d.profile.Regions() }

// LinesPerRegion returns the region size in lines.
func (d *Device) LinesPerRegion() int { return d.profile.LinesPerRegion() }

// RegionOf returns the region that contains physical line i.
func (d *Device) RegionOf(line int) int { return d.profile.RegionOf(line) }

func (d *Device) check(line int) {
	if line < 0 || line >= len(d.core.Left) {
		panic(fmt.Sprintf("device: line %d out of range [0,%d)", line, len(d.core.Left)))
	}
}

// Write performs one physical write to line. It returns true exactly when
// this write exhausts the line's budget (the wear-out transition); the
// write itself still completes, matching the paper's model in which the
// wear-out failure triggers the replacement procedure for subsequent
// accesses. Writes to an already-worn line are counted but return false.
func (d *Device) Write(line int) (wornNow bool) {
	d.check(line)
	return d.core.Write(line)
}

// ForceWear marks line worn immediately, regardless of how much of its
// write budget remains — the stuck-at hard fault of the fault-injection
// layer (internal/faultinject). No write is counted. It returns true when
// this call performed the wear-out transition and false when the line was
// already worn.
func (d *Device) ForceWear(line int) bool {
	d.check(line)
	return d.core.ForceWear(line)
}

// Worn reports whether line has exhausted its budget.
func (d *Device) Worn(line int) bool {
	d.check(line)
	return d.core.Worn[line]
}

// Remaining returns the writes line can still absorb before wearing out
// (zero for worn lines).
func (d *Device) Remaining(line int) int64 {
	d.check(line)
	return d.core.Remaining(line)
}

// Writes returns the number of physical writes line has absorbed.
func (d *Device) Writes(line int) int64 {
	d.check(line)
	return d.core.Writes(line)
}

// WornCount returns how many lines have worn out.
func (d *Device) WornCount() int { return d.core.WornLines }

// TotalWrites returns the number of physical writes performed on the
// device, including wear-leveling and replacement amplification. Dividing
// user writes by this gives the inverse write-amplification factor.
func (d *Device) TotalWrites() int64 { return d.core.Total }

// Endurance returns the write budget of line.
func (d *Device) Endurance(line int) int64 {
	d.check(line)
	return d.core.Endurance[line]
}

// IdealLifetime returns the sum of all line budgets — the paper's
// normalization denominator.
func (d *Device) IdealLifetime() float64 { return d.profile.Sum() }

// WearFraction returns the fraction of total budget consumed so far:
// Σ min(writes, endurance) / Σ endurance.
func (d *Device) WearFraction() float64 {
	used := 0.0
	for i, e := range d.core.Endurance {
		used += float64(min(d.core.Writes(i), e))
	}
	return used / d.profile.Sum()
}

// Reset clears all wear state, returning the device to factory condition
// with the same profile. Simulation sweeps reuse a device across
// configurations to avoid resampling profiles.
func (d *Device) Reset() { d.core.Reset() }

// WearHistogram buckets the per-line consumed-fraction of budget into
// `buckets` equal-width bins over [0, 1]; worn lines land in the last bin
// regardless of consumed fraction, so a force-worn line (whose budget was
// killed, not spent) is counted as dead rather than as lightly used.
// Useful for visualizing how evenly a scheme spreads wear.
func (d *Device) WearHistogram(buckets int) []int {
	if buckets <= 0 {
		panic("device: WearHistogram needs positive buckets")
	}
	h := make([]int, buckets)
	for i, worn := range d.core.Worn {
		if worn {
			h[buckets-1]++
			continue
		}
		frac := float64(d.core.Writes(i)) / float64(d.core.Endurance[i])
		if frac >= 1 {
			h[buckets-1]++
			continue
		}
		h[int(frac*float64(buckets))]++
	}
	return h
}
