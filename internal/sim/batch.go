// batch.go is the struct-of-arrays batched write engine. Instead of one
// interface-call chain per write (attack → leveler → scheme → device),
// the loops here pull address batches from attack.BatchAttack, translate
// them through a cached slot→line binding, and index the device.Core
// slices directly.
//
// Both loops run on one epoch driver, runEpochs, which owns the
// MaxUserWrites cap, the Config.Done poll and the epoch size, and hands
// each epoch to one specialized inner loop per route: quiescentEpoch,
// checkedEpoch (unleveled, and leveled under Identity), pcdEpoch,
// swapEpoch and levelerEpoch. Each inner loop returns the user writes it
// served, and the driver adds them once per epoch.
//
// Unleveled epochs may skip the wear-out compare: while the minimum
// remaining budget across the bound lines guarantees that no line can die
// within an epoch, the inner loop degenerates to a counter increment.
// That quiescence pays only when the weakest bound line has more than
// epochSize writes left. At the experiments' default scale the weakest
// line's endurance is below epochSize, so every epoch is checked from the
// first write on, and safeWrites stops scanning at the first line within
// one epoch of its budget.
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
// over the slots — are guaranteed to wear out no bound line. It is exact,
// one less than the minimum remaining budget, whenever that is at least
// epochSize; otherwise it returns 0 at the first bound line with at most
// epochSize writes left. Any bound below epochSize runs every full epoch
// checked until the next wear-out, so stopping there moves no epoch from
// one loop to the other, and once lines start wearing out a scan visits
// about one line. Recomputed only after wear-outs; callers decrement it as
// epochs retire.
func safeWrites(core *device.Core, slotLine []int32) int64 {
	if len(slotLine) == 0 {
		return 0
	}
	writes, endurance := core.Writes, core.Endurance
	min := int64(1)<<62 - 1
	for _, line := range slotLine {
		rem := endurance[line] - writes[line]
		if rem <= epochSize {
			return 0
		}
		if rem < min {
			min = rem
		}
	}
	return min - 1
}

// runEpochs is the epoch driver of both batched loops. It stops at the
// MaxUserWrites cap, polls Config.Done at every epoch start and hands
// epoch the length of the next epoch: epochSize, or less where the cap
// cuts the last one short. epoch returns the user writes it served and
// false once the device failed.
//
// userWrites is a multiple of epochSize at every epoch start (a short
// epoch happens only at the cap, which returns next), so the poll lands
// on exactly the reference loops' userWrites&1023 == 0 indexes.
func runEpochs(cfg Config, epoch func(size int) (consumed int, ok bool)) (userWrites int64, interrupted bool) {
	maxWrites := cfg.MaxUserWrites
	for {
		if maxWrites > 0 && userWrites >= maxWrites {
			return userWrites, false
		}
		if cfg.Done != nil {
			select {
			case <-cfg.Done:
				return userWrites, true
			default:
			}
		}
		size := epochSize
		if maxWrites > 0 && maxWrites-userWrites < int64(size) {
			size = int(maxWrites - userWrites)
		}
		consumed, ok := epoch(size)
		userWrites += int64(consumed)
		if !ok {
			return userWrites, false
		}
	}
}

// runBatchedDirect is the unleveled, fault-free SoA loop. Each epoch runs
// quiescentEpoch when no bound line can wear out within it, and otherwise
// a checked loop that replicates Device.Write inline. The quiescence
// bound is decremented as epochs retire and rescanned after every epoch
// that wore a line out.
//
// PCD shrinks the user space inside OnWearOut, so its checked epochs run
// pcdEpoch, which draws each address with Next at the current capacity
// instead of one NextBatch at the epoch's starting size; quiescent epochs
// contain no wear-out and keep the batch. slotLine always spans exactly
// the current user space.
func runBatchedDirect(cfg Config, dev *device.Device, e *engine, att attack.BatchAttack) (userWrites int64, interrupted bool) {
	scheme := e.scheme
	if scheme.UserLines() == 0 {
		e.failed = true
		return 0, false
	}
	core := dev.Core()
	// The core's slices never reallocate, so the loops index local copies
	// of their headers instead of reloading them through core.
	writes, endurance, worn := core.Writes, core.Endurance, core.Worn
	_, pcd := scheme.(*spare.PCDScheme)
	slotLine := newSlotLine(scheme, scheme.UserLines())
	quiescent := safeWrites(core, slotLine)
	batch := make([]int, epochSize)
	return runEpochs(cfg, func(size int) (int, bool) {
		b := batch[:size]
		if quiescent >= int64(size) {
			att.NextBatch(len(slotLine), b)
			quiescentEpoch(b, slotLine, writes)
			quiescent -= int64(size)
			return size, true
		}
		rebinds := e.rebinds
		var consumed int
		var ok bool
		if pcd {
			consumed, slotLine, ok = pcdEpoch(e, att, size, slotLine, writes, endurance, worn)
		} else {
			att.NextBatch(len(slotLine), b)
			consumed, ok = checkedEpoch(e, b, slotLine, writes, endurance, worn)
		}
		if e.rebinds == rebinds {
			// Still a valid lower bound: each write spends at most one
			// unit of any line's remaining budget.
			quiescent -= int64(size)
		} else if ok {
			quiescent = safeWrites(core, slotLine)
		}
		return consumed, ok
	})
}

// quiescentEpoch writes the slots of b when no bound line can reach its
// budget within them: an increment per write and no wear-out compare.
func quiescentEpoch(b []int, slotLine []int32, writes []int64) {
	for _, u := range b {
		writes[slotLine[u]]++
	}
}

// checkedEpoch writes the slots of b with the wear-out compare inline: the
// unleveled loop of every scheme but PCD, and the leveled loop under
// Identity, whose slots are the logical addresses. The capacity is fixed,
// so wearOut's cache stays the same length.
func checkedEpoch(e *engine, b []int, slotLine []int32, writes, endurance []int64, worn []bool) (consumed int, ok bool) {
	for i, u := range b {
		line := slotLine[u]
		w := writes[line] + 1
		writes[line] = w
		if w >= endurance[line] && !worn[line] {
			if _, ok := e.wearOut(slotLine, u); !ok {
				return i + 1, false
			}
		}
	}
	return len(b), true
}

// pcdEpoch is checkedEpoch for PCD's shrinking user space: size writes,
// each address drawn with Next at the capacity current when it is drawn.
// It returns the slot→line cache cut to the capacity the epoch ends with.
func pcdEpoch(e *engine, att attack.Attack, size int, slotLine []int32, writes, endurance []int64, worn []bool) (consumed int, _ []int32, ok bool) {
	for i := 0; i < size; i++ {
		u := att.Next(len(slotLine))
		line := slotLine[u]
		w := writes[line] + 1
		writes[line] = w
		if w >= endurance[line] && !worn[line] {
			if slotLine, ok = e.wearOut(slotLine, u); !ok {
				return i + 1, slotLine, false
			}
		}
	}
	return size, slotLine, true
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
// randomized swap schemes run swapEpoch on wearlevel.SwapWL's shared
// perm/credit state with only the rare relocation paying a call, and
// Identity runs checkedEpoch with no translation at all. Every other
// leveler runs levelerEpoch through the interface calls. Leveled epochs
// are always checked — movement writes make a cheap per-write compare
// simpler than accounting relocation traffic against a quiescence budget.
func runBatchedLeveled(cfg Config, dev *device.Device, e *engine, att attack.BatchAttack) (userWrites int64, interrupted bool) {
	core := dev.Core()
	writes, endurance, worn := core.Writes, core.Endurance, core.Worn
	lev := cfg.Leveler
	logicalLines := lev.LogicalLines()
	slotLine := newSlotLine(e.scheme, e.scheme.UserLines())
	mov := &cachedMover{e: e, core: core, slotLine: slotLine}
	batch := make([]int, epochSize)
	swap, _ := lev.(*wearlevel.SwapWL)
	var perm, credit []int
	if swap != nil {
		perm, credit = swap.HotState()
	}
	_, ident := lev.(*wearlevel.Identity)
	return runEpochs(cfg, func(size int) (int, bool) {
		b := batch[:size]
		att.NextBatch(logicalLines, b)
		switch {
		case swap != nil:
			return swapEpoch(e, b, swap, perm, credit, mov, slotLine, writes, endurance, worn)
		case ident:
			return checkedEpoch(e, b, slotLine, writes, endurance, worn)
		default:
			return levelerEpoch(e, b, lev, mov, slotLine, writes, endurance, worn)
		}
	})
}

// swapEpoch writes the logical addresses of b under a wearlevel.SwapWL:
// translation through perm, and a credit decrement that calls Relocate
// when it runs out.
func swapEpoch(e *engine, b []int, swap *wearlevel.SwapWL, perm, credit []int, mov *cachedMover,
	slotLine []int32, writes, endurance []int64, worn []bool) (consumed int, ok bool) {
	for i, lla := range b {
		u := perm[lla]
		line := slotLine[u]
		w := writes[line] + 1
		writes[line] = w
		if w >= endurance[line] && !worn[line] {
			if _, ok := e.wearOut(slotLine, u); !ok {
				return i + 1, false
			}
		}
		credit[lla]--
		if credit[lla] <= 0 {
			if !swap.Relocate(lla, mov) {
				return i + 1, false
			}
		}
	}
	return len(b), true
}

// levelerEpoch writes the logical addresses of b under any other leveler,
// through its Translate and OnWrite.
func levelerEpoch(e *engine, b []int, lev wearlevel.Leveler, mov *cachedMover,
	slotLine []int32, writes, endurance []int64, worn []bool) (consumed int, ok bool) {
	for i, lla := range b {
		u := lev.Translate(lla)
		line := slotLine[u]
		w := writes[line] + 1
		writes[line] = w
		if w >= endurance[line] && !worn[line] {
			if _, ok := e.wearOut(slotLine, u); !ok {
				return i + 1, false
			}
		}
		if !lev.OnWrite(lla, mov) {
			return i + 1, false
		}
	}
	return len(b), true
}

// wearOut is the rare-path half of the inlined write: mark the slot's line
// worn, run the replacement procedure, and refresh the cached binding.
// PCD shrinks the user space inside OnWearOut, so the cache is cut to the
// new capacity and the worn slot is refreshed only if it is still in the
// space (PCD drops it when it was the last slot); every other scheme
// keeps its capacity and the cache its length. Returns false on device
// failure (e.failed is set).
func (e *engine) wearOut(slotLine []int32, u int) ([]int32, bool) {
	core := e.dev.Core()
	core.Worn[slotLine[u]] = true
	core.WornLines++
	e.rebinds++
	if !e.scheme.OnWearOut(u) {
		e.failed = true
		return slotLine, false
	}
	slotLine = slotLine[:e.scheme.UserLines()]
	if u < len(slotLine) {
		slotLine[u] = int32(e.scheme.Access(u))
	}
	return slotLine, true
}
