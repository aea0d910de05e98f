// batch.go is the struct-of-arrays batched write engine. Instead of one
// interface-call chain per write (attack → leveler → scheme → device),
// the loops here pull address batches from attack.BatchAttack, translate
// them through a cached slot→line binding, and index the device.Core
// slices directly. Wear-out checks are amortized: while the minimum
// remaining budget across the bound lines guarantees no line can die
// within an epoch, the inner loop degenerates to a counter increment.
//
// Exactness contract: every loop in this file must produce bit-identical
// Results to the per-write reference engine (see crossval_test.go). The
// load-bearing invariants are documented on spare.Scheme.Access (bindings
// are pure lookups that change only inside OnWearOut, and only for the
// worn slot) and attack.BatchAttack (NextBatch ≡ repeated Next). Fault
// configurations break the binding invariant via metadata corruption and
// never enter these loops.
//
// The loops leave device.Core.Total short by exactly the user writes they
// return: a load and store through the core on every write cost more than
// anything else in the leveled loop, so RunDetailed adds the returned
// count once instead. Movement and replacement writes still count through
// Core.Write as they happen.
package sim

import (
	"maxwe/internal/attack"
	"maxwe/internal/device"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
)

// epochSize is the batch length of the SoA loops. It equals the
// cancellation-polling granularity of the per-write loops (1024 writes)
// so epoch boundaries land on exactly the user-write indexes where the
// reference loops poll Config.Done.
const epochSize = 1024

// newSlotLine snapshots scheme.Access for every user slot into a flat
// reverse map. Valid until the next OnWearOut, which rebinds only the
// worn slot — the caller refreshes that single entry.
func newSlotLine(scheme spare.Scheme, userLines int) []int32 {
	sl := make([]int32, userLines)
	for u := 0; u < userLines; u++ {
		sl[u] = int32(scheme.Access(u))
	}
	return sl
}

// safeWrites returns how many further writes — however they distribute
// over the slots — are guaranteed to wear out no bound line: one less
// than the minimum remaining budget. Recomputed only after wear-outs;
// callers decrement it as epochs retire.
func safeWrites(core *device.Core, slotLine []int32) int64 {
	if len(slotLine) == 0 {
		return 0
	}
	min := int64(1)<<62 - 1
	for _, line := range slotLine {
		if rem := core.Endurance[line] - core.Writes[line]; rem < min {
			min = rem
		}
	}
	return min - 1
}

// runBatchedDirect is the unleveled, fault-free SoA loop. Epochs of at
// most epochSize writes run either an unchecked increment-only loop, when
// no bound line can wear out within the epoch, or a checked loop that
// replicates Device.Write inline.
//
// PCD shrinks the user space inside OnWearOut, so its checked epochs draw
// each address with Next at the current capacity instead of one NextBatch
// at the epoch's starting size; quiescent epochs contain no wear-out and
// keep the batch. After every wear-out slotLine is truncated to the new
// capacity, and the worn slot's binding is refreshed only if the slot is
// still in the space (PCD drops it when it was the last slot).
func runBatchedDirect(cfg Config, dev *device.Device, e *engine, att attack.BatchAttack) (userWrites int64, interrupted bool) {
	scheme := e.scheme
	core := dev.Core()
	maxWrites := cfg.MaxUserWrites
	done := cfg.Done
	_, pcd := scheme.(*spare.PCDScheme)
	userLines := scheme.UserLines()
	if userLines == 0 {
		e.failed = true
		return 0, false
	}
	slotLine := newSlotLine(scheme, userLines)
	quiescent := safeWrites(core, slotLine)
	batch := make([]int, epochSize)
	for {
		if maxWrites > 0 && userWrites >= maxWrites {
			return userWrites, false
		}
		// userWrites is a multiple of epochSize at every epoch start (a
		// short final epoch only happens at the MaxUserWrites boundary,
		// which returns above), so this polls at exactly the reference
		// loop's userWrites&1023 == 0 indexes.
		if done != nil {
			select {
			case <-done:
				return userWrites, true
			default:
			}
		}
		size := epochSize
		if maxWrites > 0 && maxWrites-userWrites < int64(size) {
			size = int(maxWrites - userWrites)
		}
		b := batch[:size]
		if quiescent >= int64(size) {
			// No bound line can reach its budget within this epoch: skip
			// the wear-out compare entirely.
			att.NextBatch(userLines, b)
			for _, u := range b {
				core.Writes[slotLine[u]]++
			}
			userWrites += int64(size)
			quiescent -= int64(size)
			continue
		}
		if !pcd {
			att.NextBatch(userLines, b)
		}
		wore := false
		for i := range b {
			u := b[i]
			if pcd {
				u = att.Next(userLines)
			}
			line := slotLine[u]
			core.Writes[line]++
			userWrites++
			if !core.Worn[line] && core.Writes[line] >= core.Endurance[line] {
				core.Worn[line] = true
				core.WornLines++
				wore = true
				e.rebinds++
				if !scheme.OnWearOut(u) {
					e.failed = true
					return userWrites, false
				}
				userLines = scheme.UserLines()
				slotLine = slotLine[:userLines]
				if u < userLines {
					slotLine[u] = int32(scheme.Access(u))
				}
			}
		}
		switch {
		case !wore:
			// Still a valid lower bound: each write spends at most one
			// unit of any line's remaining budget.
			quiescent -= int64(size)
		case pcd:
			// Under PCD wear-outs cluster once they begin, and an O(lines)
			// rescan after each of them costs more than it saves: every
			// later epoch runs checked.
			quiescent = 0
		default:
			quiescent = safeWrites(core, slotLine)
		}
	}
}

// cachedMover routes wear-leveling movement writes through the SoA core
// while keeping the batched loop's slot→line cache coherent across the
// replacements those writes can trigger. It is the batched twin of
// engine.WriteSlot.
type cachedMover struct {
	e        *engine
	core     *device.Core
	slotLine []int32
}

var _ wearlevel.Mover = (*cachedMover)(nil)

// WriteSlot implements wearlevel.Mover with the cached binding.
func (m *cachedMover) WriteSlot(u int) bool {
	if m.core.Write(int(m.slotLine[u])) {
		m.e.rebinds++
		if !m.e.scheme.OnWearOut(u) {
			m.e.failed = true
			return false
		}
		m.slotLine[u] = int32(m.e.scheme.Access(u))
	}
	return true
}

// runBatchedLeveled is the leveled, fault-free SoA loop. Addresses are
// batched; translation and remap scheduling stay per-write (they are
// stateful), but the two hottest leveler families are devirtualized: the
// randomized swap schemes run on wearlevel.SwapWL's shared perm/credit
// state with only the rare relocation paying a call, and Identity
// translates with no call at all. Leveled epochs always run the checked
// loop — movement writes make a cheap per-write compare simpler than
// accounting relocation traffic against a quiescence budget.
func runBatchedLeveled(cfg Config, dev *device.Device, e *engine, att attack.BatchAttack) (userWrites int64, interrupted bool) {
	scheme := e.scheme
	core := dev.Core()
	lev := cfg.Leveler
	logicalLines := lev.LogicalLines()
	maxWrites := cfg.MaxUserWrites
	done := cfg.Done
	slotLine := newSlotLine(scheme, scheme.UserLines())
	mov := &cachedMover{e: e, core: core, slotLine: slotLine}
	batch := make([]int, epochSize)
	// The core's slices never reallocate, so the loops index local
	// copies of their headers instead of reloading them through core.
	writes, endurance, worn := core.Writes, core.Endurance, core.Worn

	// Devirtualize the two hot leveler families; every other leveler runs
	// the same loop through the interface calls.
	var swap *wearlevel.SwapWL
	var perm, credit []int
	ident := false
	switch l := lev.(type) {
	case *wearlevel.SwapWL:
		swap = l
		perm, credit = l.HotState()
	case *wearlevel.Identity:
		ident = true
	}

	for {
		if maxWrites > 0 && userWrites >= maxWrites {
			return userWrites, false
		}
		// See runBatchedDirect: epoch starts are exactly the reference
		// polling indexes.
		if done != nil {
			select {
			case <-done:
				return userWrites, true
			default:
			}
		}
		size := epochSize
		if maxWrites > 0 && maxWrites-userWrites < int64(size) {
			size = int(maxWrites - userWrites)
		}
		b := batch[:size]
		att.NextBatch(logicalLines, b)
		// One specialized inner loop per leveler family: the dispatch
		// runs once per epoch, not once per write.
		switch {
		case swap != nil:
			for _, lla := range b {
				u := perm[lla]
				line := slotLine[u]
				w := writes[line] + 1
				writes[line] = w
				userWrites++
				if w >= endurance[line] && !worn[line] {
					if !e.batchWearOut(slotLine, u) {
						return userWrites, false
					}
				}
				credit[lla]--
				if credit[lla] <= 0 {
					if !swap.Relocate(lla, mov) {
						return userWrites, false
					}
				}
			}
		case ident:
			for _, u := range b {
				line := slotLine[u]
				w := writes[line] + 1
				writes[line] = w
				userWrites++
				if w >= endurance[line] && !worn[line] {
					if !e.batchWearOut(slotLine, u) {
						return userWrites, false
					}
				}
			}
		default:
			for _, lla := range b {
				u := lev.Translate(lla)
				line := slotLine[u]
				w := writes[line] + 1
				writes[line] = w
				userWrites++
				if w >= endurance[line] && !worn[line] {
					if !e.batchWearOut(slotLine, u) {
						return userWrites, false
					}
				}
				if !lev.OnWrite(lla, mov) {
					return userWrites, false
				}
			}
		}
	}
}

// batchWearOut is the rare-path half of the inlined write: mark the slot's
// line worn, run the replacement procedure, and refresh the cached
// binding. Returns false on device failure (e.failed is set).
func (e *engine) batchWearOut(slotLine []int32, u int) bool {
	core := e.dev.Core()
	line := slotLine[u]
	core.Worn[line] = true
	core.WornLines++
	e.rebinds++
	if !e.scheme.OnWearOut(u) {
		e.failed = true
		return false
	}
	slotLine[u] = int32(e.scheme.Access(u))
	return true
}
