// batch.go is the struct-of-arrays batched write engine. Instead of one
// interface-call chain per write (attack → leveler → scheme → device),
// the loops here pull address batches from attack.BatchAttack, translate
// them through the scheme's live slot→line table (spare.Scheme.Bindings),
// and index the device.Core slices directly.
//
// RunDetailed has one epoch driver, runEpochs, and three routes: the
// per-write route (generalEpoch driving a Stepper, stepper.go) and the two
// loops here, unleveled (runBatchedDirect) and leveled
// (runBatchedLeveled). The driver owns the MaxUserWrites cap, the
// Config.Done poll and the epoch size, and hands each epoch to one
// specialized inner loop: generalEpoch, checkedEpoch (unleveled, and
// leveled under Identity), pcdEpoch, swapEpoch or levelerEpoch. Each
// returns the user writes it served, and the driver adds them once per
// epoch. Every write of checkedEpoch, pcdEpoch and levelerEpoch
// decrements its line's remaining budget (device.Core.Left) and tests the
// sign of the result inline; no epoch skips that check. A spent budget
// (<= 0) takes the rare path, engine.wearOut, which also filters lines
// already worn, so those loops read no slice of the core but Left.
// swapEpoch instead decrements one countdown per logical address, the
// lesser of its leveler credit and its line's budget (swapCountdown), and
// settles both only at events: a spent countdown, a relocation that
// writes the address's line, and the route's return. Left is therefore
// exact at every wear-out test and when RunDetailed returns, not after
// every write.
//
// Exactness contract: every loop in this file must produce bit-identical
// Results to the per-write reference engine (see crossval_test.go). The
// load-bearing invariants are documented on spare.Scheme.Bindings (the
// loops hold the scheme's own table, which changes only inside OnWearOut
// and only for the worn slot, so they keep no copy; PCD's shrink is the
// one change of length, after which pcdEpoch fetches the table again)
// and attack.BatchAttack (NextBatch ≡ repeated Next). Fault plans draw an
// outcome for every physical write, which only the per-write route does,
// so fault configurations never enter these loops.
//
// The loops leave device.Core.Total short by exactly the user writes they
// return: a load and store through the core on every write cost more than
// anything else in the leveled loop, so RunDetailed adds the returned
// count once instead. Movement and replacement writes still count through
// Core.Write as they happen.
package sim

import (
	"math"

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
// at the epoch's starting size; slotLine, the scheme's table, is fetched
// again after every PCD wear-out so it spans exactly the current user
// space.
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
	slotLine := scheme.Bindings()
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
// so slotLine keeps its length across wear-outs.
func checkedEpoch(e *engine, b []int, slotLine []int32, left []int64) (consumed int, ok bool) {
	for i, u := range b {
		line := slotLine[u]
		l := left[line] - 1
		left[line] = l
		if l <= 0 {
			if !e.wearOut(line, u) {
				return i + 1, false
			}
		}
	}
	return len(b), true
}

// pcdEpoch is checkedEpoch for PCD's shrinking user space: size writes,
// each address drawn with Next at the capacity current when it is drawn.
// Each wear-out shrinks the scheme's table, so it is fetched again; the
// epoch returns the table it ends with.
func pcdEpoch(e *engine, att attack.Attack, size int, slotLine []int32, left []int64) (consumed int, _ []int32, ok bool) {
	for i := 0; i < size; i++ {
		u := att.Next(len(slotLine))
		line := slotLine[u]
		l := left[line] - 1
		left[line] = l
		if l <= 0 {
			ok = e.wearOut(line, u)
			slotLine = e.scheme.Bindings()
			if !ok {
				return i + 1, slotLine, false
			}
		}
	}
	return size, slotLine, true
}

// boundMover routes wear-leveling movement writes through the SoA core,
// resolving slots through the scheme's table, which the replacements those
// writes can trigger update in place. It is the batched twin of
// engine.WriteSlot.
type boundMover struct {
	e        *engine
	core     *device.Core
	slotLine []int32
}

var _ wearlevel.Mover = (*boundMover)(nil)

// WriteSlot implements wearlevel.Mover through the scheme's table.
func (m *boundMover) WriteSlot(u int) bool {
	if m.core.Write(int(m.slotLine[u])) {
		m.e.rebinds++
		if !m.e.scheme.OnWearOut(u) {
			m.e.failed = true
			return false
		}
	}
	return true
}

// runBatchedLeveled is the leveled, fault-free SoA loop. Addresses are
// batched; translation and remap scheduling stay per-write (they are
// stateful), but the two hottest leveler families are devirtualized: the
// randomized swap schemes run swapEpoch on a swapCountdown over
// wearlevel.SwapWL's shared perm/credit state, with only the rare events
// paying a call, and Identity runs checkedEpoch with no translation at
// all. Every other leveler runs levelerEpoch through the interface calls.
func runBatchedLeveled(cfg Config, dev *device.Device, e *engine, att attack.BatchAttack) (userWrites int64, interrupted bool) {
	core := dev.Core()
	left := core.Left
	lev := cfg.Leveler
	logicalLines := lev.LogicalLines()
	slotLine := e.scheme.Bindings()
	mov := &boundMover{e: e, core: core, slotLine: slotLine}
	batch := make([]int, epochSize)
	var sc *swapCountdown
	if swap, ok := lev.(*wearlevel.SwapWL); ok {
		sc = newSwapCountdown(e, swap, mov, left)
	}
	_, ident := lev.(*wearlevel.Identity)
	userWrites, interrupted = runEpochs(cfg, func(size int) (int, bool) {
		b := batch[:size]
		att.NextBatch(logicalLines, b)
		switch {
		case sc != nil:
			return swapEpoch(sc, b)
		case ident:
			return checkedEpoch(e, b, slotLine, left)
		default:
			return levelerEpoch(e, b, lev, mov, slotLine, left)
		}
	})
	if sc != nil {
		sc.settleAll()
	}
	return userWrites, interrupted
}

// swapCountdown is swapEpoch's state under a wearlevel.SwapWL. A write to
// logical address lla has only two effects that matter before the route
// ends: it spends one unit of lla's credit and one unit of its line's
// budget (Left), and it triggers an event when either runs out. So each
// address gets one countdown, cd = min(credit, Left), clamped to at least
// 1 so that a line written past wear-out takes the event path on every
// write, and a write is one decrement of cd. Only when cd reaches zero are
// the writes taken since the grant settled into credit and Left, and the
// events run. credit and Left are therefore exact at every event and once
// the route returns (settleAll), not after every write.
//
// A line belongs to at most one address at a time (perm and the slot→line
// binding are both one to one), so no other write reaches a line with
// pending writes except a relocation's movement write, which settles the
// line's address first.
type swapCountdown struct {
	e                 *engine
	swap              *wearlevel.SwapWL
	perm, inv, credit []int
	mov               *boundMover
	slotLine          []int32
	left              []int64
	// cd is each address's countdown and grant the countdown it was last
	// granted: grant-cd writes are in neither credit nor Left yet.
	cd, grant []int32
	// lineOf composes perm and slotLine: the line each address writes. It
	// changes only at events.
	lineOf []int32
}

func newSwapCountdown(e *engine, swap *wearlevel.SwapWL, mov *boundMover, left []int64) *swapCountdown {
	perm, inv, credit := swap.HotState()
	n := len(perm)
	s := &swapCountdown{e: e, swap: swap, perm: perm, inv: inv, credit: credit, mov: mov,
		slotLine: mov.slotLine, left: left,
		cd: make([]int32, n), grant: make([]int32, n), lineOf: make([]int32, n)}
	for lla, u := range perm {
		s.lineOf[lla] = s.slotLine[u]
		s.regrant(lla)
	}
	return s
}

// swapEpoch writes the logical addresses of b under a wearlevel.SwapWL:
// one countdown decrement per write, and the event path when it runs out.
func swapEpoch(s *swapCountdown, b []int) (consumed int, ok bool) {
	cd := s.cd
	for i, lla := range b {
		c := cd[lla] - 1
		cd[lla] = c
		if c <= 0 {
			if !s.event(lla) {
				return i + 1, false
			}
		}
	}
	return len(b), true
}

// event runs once lla's countdown reaches zero. It settles the writes lla
// took, then runs the per-write route's events for the last of them in
// its order: the wear-out of lla's line, then a relocation if the credit
// is spent. It ends with a fresh grant.
func (s *swapCountdown) event(lla int) bool {
	taken := s.grant[lla]
	s.grant[lla] = 0
	line := s.lineOf[lla]
	l := s.left[line] - int64(taken)
	s.left[line] = l
	// The last write spends its credit only once its wear-out succeeded.
	s.credit[lla] -= int(taken) - 1
	if l <= 0 {
		u := s.perm[lla]
		if !s.e.wearOut(line, u) {
			return false
		}
		s.lineOf[lla] = s.slotLine[u]
	}
	s.credit[lla]--
	if s.credit[lla] <= 0 && !s.relocate(lla) {
		return false
	}
	s.regrant(lla)
	return true
}

// relocate is SwapWL.Relocate's three steps with the movement writes
// through the bound mover: Pick, the writes to dest and to lla's slot,
// Commit. The address on dest is settled first, so that the movement
// write's wear-out test sees its line's exact budget, and granted afresh
// after the commit. Its credit is settled too: Commit overwrites it, but a
// failed movement write commits nothing and leaves it as the per-write
// route would.
func (s *swapCountdown) relocate(lla int) bool {
	dest := s.swap.Pick()
	cur := s.perm[lla]
	if dest == cur {
		s.swap.Commit(lla, dest)
		return true
	}
	other := s.inv[dest]
	s.settle(other)
	if !s.mov.WriteSlot(dest) || !s.mov.WriteSlot(cur) {
		return false
	}
	s.swap.Commit(lla, dest)
	s.lineOf[lla], s.lineOf[other] = s.slotLine[dest], s.slotLine[cur]
	s.regrant(other)
	return true
}

// regrant gives lla the countdown to its next event.
func (s *swapCountdown) regrant(lla int) {
	g := max(min(int64(s.credit[lla]), s.left[s.lineOf[lla]], math.MaxInt32), 1)
	s.cd[lla], s.grant[lla] = int32(g), int32(g)
}

// settle moves the writes lla took since its grant into credit and Left.
func (s *swapCountdown) settle(lla int) {
	if p := s.grant[lla] - s.cd[lla]; p != 0 {
		s.credit[lla] -= int(p)
		s.left[s.lineOf[lla]] -= int64(p)
		s.grant[lla] = s.cd[lla]
	}
}

// settleAll settles every address, so credit and Left are exact when the
// route returns, whether it failed, hit the cap or was interrupted.
func (s *swapCountdown) settleAll() {
	for lla := range s.cd {
		s.settle(lla)
	}
}

// levelerEpoch writes the logical addresses of b under any other leveler,
// through its Translate and OnWrite.
func levelerEpoch(e *engine, b []int, lev wearlevel.Leveler, mov *boundMover,
	slotLine []int32, left []int64) (consumed int, ok bool) {
	for i, lla := range b {
		u := lev.Translate(lla)
		line := slotLine[u]
		l := left[line] - 1
		left[line] = l
		if l <= 0 {
			if !e.wearOut(line, u) {
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
// write leaves the budget of line, slot u's line, at or below zero: mark
// the line worn and run the replacement procedure, which rebinds u in the
// scheme's table (under PCD it also shrinks the table, and the caller
// fetches it again). A line that is already worn (written again past
// wear-out) returns ok at once, so no loop needs the Worn slice. Returns
// false on device failure (e.failed is set).
func (e *engine) wearOut(line int32, u int) bool {
	core := e.dev.Core()
	if core.Worn[line] {
		return true
	}
	core.Worn[line] = true
	core.WornLines++
	e.rebinds++
	if !e.scheme.OnWearOut(u) {
		e.failed = true
		return false
	}
	return true
}
