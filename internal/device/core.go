package device

import "maxwe/internal/endurance"

// Core is the struct-of-arrays wear state of a device: three flat slices
// indexed by physical line number, plus two running totals. Hot simulation
// loops (internal/sim) index these slices directly instead of paying a
// method call per write; Device remains the bounds-checked, invariant-
// preserving view for everyone else.
//
// Each line keeps its remaining budget, not its write count, so a hot
// loop checks wear with one load, one store and one sign test on Left.
// The invariants the sim loops rely on — and must preserve when mutating
// the slices directly — are exactly Write's semantics:
//
//   - Left[i] is Endurance[i] minus every physical write to line i, worn
//     or not; it goes negative on writes past wear-out. Writes(i) is
//     their difference. The sim's swap-leveled loop settles its user
//     writes into Left in arrears: before every wear-out test and every
//     other write to the line, and when the loop returns.
//   - Total is the sum of all Writes(i) once a run's loop has returned.
//     The batched sim loops do not store it per write: they count user
//     writes in a local and the caller adds that count when the loop
//     returns, while movement and replacement writes count through Write
//     as they happen. Nothing reads Total mid-loop.
//   - Worn[i] flips false→true exactly once, when a write leaves
//     Left[i] <= 0 while the line is not yet worn (or via ForceWear); it
//     never flips back except through Reset.
//   - WornLines counts true entries in Worn.
type Core struct {
	// Left is the per-line remaining write budget: Endurance minus the
	// writes the line has absorbed.
	Left []int64
	// Endurance is the per-line write budget, materialized from the
	// endurance profile at construction so the hot loop needs no
	// profile indirection.
	Endurance []int64
	// Worn is the per-line wear-out flag.
	Worn []bool
	// WornLines counts lines with Worn[i] == true.
	WornLines int
	// Total counts every physical write performed on the device.
	Total int64
}

// newCore materializes the SoA state for a profile.
func newCore(p *endurance.Profile) Core {
	n := p.Lines()
	c := Core{
		Left:      make([]int64, n),
		Endurance: make([]int64, n),
		Worn:      make([]bool, n),
	}
	for i := 0; i < n; i++ {
		c.Endurance[i] = p.LineEndurance(i)
	}
	copy(c.Left, c.Endurance)
	return c
}

// Write performs one physical write to line, returning true exactly on
// the wear-out transition. It is the canonical per-write semantics that
// batched loops replicate inline; callers must pass an in-range line.
func (c *Core) Write(line int) (wornNow bool) {
	c.Left[line]--
	c.Total++
	if c.Left[line] <= 0 && !c.Worn[line] {
		c.Worn[line] = true
		c.WornLines++
		return true
	}
	return false
}

// Writes returns the number of physical writes line has absorbed.
func (c *Core) Writes(line int) int64 { return c.Endurance[line] - c.Left[line] }

// ForceWear marks line worn without counting a write. It returns true
// when this call performed the transition, false if already worn.
func (c *Core) ForceWear(line int) bool {
	if c.Worn[line] {
		return false
	}
	c.Worn[line] = true
	c.WornLines++
	return true
}

// Remaining returns the writes line can still absorb before wearing out
// (zero for worn lines, including force-worn lines whose budget was
// killed rather than spent).
func (c *Core) Remaining(line int) int64 {
	if c.Worn[line] {
		return 0
	}
	return max(c.Left[line], 0)
}

// Reset clears all wear state in place.
func (c *Core) Reset() {
	copy(c.Left, c.Endurance)
	clear(c.Worn)
	c.WornLines = 0
	c.Total = 0
}
