// batch.go is the struct-of-arrays batched write engine. Instead of one
// interface-call chain per write (attack → leveler → scheme → device),
// the loops here pull address batches from attack.BatchAttack, translate
// them through a cached slot→line binding, and index the device.Core
// slices directly.
//
// RunDetailed has one epoch driver, runEpochs, and three routes: the
// per-write route (generalEpoch driving a Stepper, stepper.go) and the two
// loops here, unleveled (runBatchedDirect) and leveled
// (runBatchedLeveled). The driver owns the MaxUserWrites cap, the
// Config.Done poll and the epoch size, and hands each epoch to one
// specialized inner loop: generalEpoch, checkedEpoch (unleveled, and
// leveled under Identity), pcdEpoch, swapEpoch or levelerEpoch. Each
// returns the user writes it served, and the driver adds them once per
// epoch. Every write of the batched loops decrements its line's remaining
// budget (device.Core.Left) and tests the sign of the result inline; no
// epoch skips that check. A spent budget (<= 0) takes the rare path,
// engine.wearOut, which also filters lines already worn, so the loops
// read no slice of the core but Left.
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

// epochSize is the epoch length of every route and so the
// cancellation-polling granularity: runEpochs polls Config.Done every 1024
// user writes, on exactly the user-write indexes where the in-test
// per-write reference engine polls it.
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

// runEpochs is the epoch driver of every route. It stops at the
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

// runBatchedDirect is the unleveled, fault-free SoA loop: every epoch
// runs checkedEpoch, which replicates Device.Write inline. PCD shrinks the
// user space inside OnWearOut, so its epochs run pcdEpoch, which draws
// each address with Next at the current capacity instead of one NextBatch
// at the epoch's starting size. slotLine always spans exactly the current
// user space.
func runBatchedDirect(cfg Config, dev *device.Device, e *engine, att attack.BatchAttack) (userWrites int64, interrupted bool) {
	scheme := e.scheme
	if scheme.UserLines() == 0 {
		e.failed = true
		return 0, false
	}
	// The core's slices never reallocate, so the loops index a local copy
	// of the budget slice's header instead of reloading it through the core.
	left := dev.Core().Left
	_, pcd := scheme.(*spare.PCDScheme)
	slotLine := newSlotLine(scheme, scheme.UserLines())
	batch := make([]int, epochSize)
	return runEpochs(cfg, func(size int) (consumed int, ok bool) {
		if pcd {
			consumed, slotLine, ok = pcdEpoch(e, att, size, slotLine, left)
			return consumed, ok
		}
		b := batch[:size]
		att.NextBatch(len(slotLine), b)
		return checkedEpoch(e, b, slotLine, left)
	})
}

// checkedEpoch writes the slots of b with the budget check inline: the
// unleveled loop of every scheme but PCD, and the leveled loop under
// Identity, whose slots are the logical addresses. The capacity is fixed,
// so wearOut's cache stays the same length.
func checkedEpoch(e *engine, b []int, slotLine []int32, left []int64) (consumed int, ok bool) {
	for i, u := range b {
		line := slotLine[u]
		l := left[line] - 1
		left[line] = l
		if l <= 0 {
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
func pcdEpoch(e *engine, att attack.Attack, size int, slotLine []int32, left []int64) (consumed int, _ []int32, ok bool) {
	for i := 0; i < size; i++ {
		u := att.Next(len(slotLine))
		line := slotLine[u]
		l := left[line] - 1
		left[line] = l
		if l <= 0 {
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
// leveler runs levelerEpoch through the interface calls.
func runBatchedLeveled(cfg Config, dev *device.Device, e *engine, att attack.BatchAttack) (userWrites int64, interrupted bool) {
	core := dev.Core()
	left := core.Left
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
			return swapEpoch(e, b, swap, perm, credit, mov, slotLine, left)
		case ident:
			return checkedEpoch(e, b, slotLine, left)
		default:
			return levelerEpoch(e, b, lev, mov, slotLine, left)
		}
	})
}

// swapEpoch writes the logical addresses of b under a wearlevel.SwapWL:
// translation through perm, and a credit decrement that calls Relocate
// when it runs out.
func swapEpoch(e *engine, b []int, swap *wearlevel.SwapWL, perm, credit []int, mov *cachedMover,
	slotLine []int32, left []int64) (consumed int, ok bool) {
	for i, lla := range b {
		u := perm[lla]
		line := slotLine[u]
		l := left[line] - 1
		left[line] = l
		if l <= 0 {
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
	slotLine []int32, left []int64) (consumed int, ok bool) {
	for i, lla := range b {
		u := lev.Translate(lla)
		line := slotLine[u]
		l := left[line] - 1
		left[line] = l
		if l <= 0 {
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

// wearOut is the rare-path half of the inlined write, called whenever a
// write leaves its line's budget at or below zero: mark the slot's line
// worn, run the replacement procedure, and refresh the cached binding. A
// line that is already worn (written again past wear-out) returns the
// cache unchanged with ok, so no loop needs the Worn slice. PCD shrinks the user space inside OnWearOut, so the cache is cut to the
// new capacity and the worn slot is refreshed only if it is still in the
// space (PCD drops it when it was the last slot); every other scheme
// keeps its capacity and the cache its length. Returns false on device
// failure (e.failed is set).
func (e *engine) wearOut(slotLine []int32, u int) ([]int32, bool) {
	core := e.dev.Core()
	line := slotLine[u]
	if core.Worn[line] {
		return slotLine, true
	}
	core.Worn[line] = true
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
