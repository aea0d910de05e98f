package attack

// BatchAttack is an optional extension of Attack for generators that can
// fill a whole batch of addresses in one call. NextBatch(n, dst) must be
// observationally identical to len(dst) successive Next(n) calls — same
// addresses, same internal state afterwards — so the sim engine can swap
// freely between the per-write and the batched path. The logical-space
// size n is fixed for the duration of one batch, so a caller simulating
// capacity shrink (PCD) may batch only writes that cannot shrink the
// space and must fall back to Next across a possible wear-out.
type BatchAttack interface {
	Attack
	// NextBatch fills dst with the next len(dst) logical lines, each in
	// [0, n). It must equal len(dst) successive Next(n) calls.
	NextBatch(n int, dst []int)
}

// NextBatch implements BatchAttack: a uniform sweep with PCD wrap,
// element-for-element identical to Next, filled one run v, v+1, … up to
// the wrap at a time.
func (a *UAA) NextBatch(n int, dst []int) {
	checkN(n)
	a.next = sweepRuns(a.next, n, dst)
}

// NextBatch implements BatchAttack with the coverage limit hoisted out of
// the per-element loop (n is fixed for the batch, so the limit is too).
func (a *PartialUAA) NextBatch(n int, dst []int) {
	checkN(n)
	limit := int(a.coverage * float64(n))
	if limit < 1 {
		limit = 1
	}
	a.next = sweepRuns(a.next, limit, dst)
}

// sweepRuns fills dst with the round-robin over [0, limit) that starts at
// next, wrapping to 0 first if a shrink left next outside the range, and
// returns the cursor after it. It writes one run v, v+1, … per wrap
// instead of testing both wrap conditions per element. An empty dst
// leaves the cursor alone, as zero Next calls would.
func sweepRuns(next, limit int, dst []int) int {
	if len(dst) == 0 {
		return next
	}
	if next >= limit {
		next = 0
	}
	for len(dst) > 0 {
		run := dst
		if len(run) > limit-next {
			run = run[:limit-next]
		}
		for j := range run {
			run[j] = next + j
		}
		dst = dst[len(run):]
		if next += len(run); next == limit {
			next = 0
		}
	}
	return next
}

// NextBatch implements BatchAttack. Redraw boundaries land at exactly the
// write indexes the per-write stream redraws at; between redraws the
// round-robin is emitted with copy from the victim ring, one copy per
// bpaRun addresses.
func (a *BPA) NextBatch(n int, dst []int) {
	checkN(n)
	i := 0
	for i < len(dst) {
		if a.victims == nil || a.spaceN != n || (a.repick > 0 && a.writes >= a.repick) {
			a.draw(n)
		}
		if len(a.ring) == 0 {
			a.fillRing()
		}
		run := len(dst) - i
		if a.repick > 0 {
			if left := a.repick - a.writes; left < run {
				run = left
			}
		}
		for out := dst[i : i+run]; len(out) > 0; {
			k := copy(out, a.ring[a.cursor:])
			out = out[k:]
			a.cursor = (a.cursor + k) % len(a.victims)
		}
		a.writes += run
		i += run
	}
}

// fillRing repeats the drawn victim list whole into the empty ring until
// it holds at least len(victims)+bpaRun addresses.
func (a *BPA) fillRing() {
	for len(a.ring) < len(a.victims)+bpaRun {
		a.ring = append(a.ring, a.victims...)
	}
}

// NextBatch implements BatchAttack: the target list round-robin, folded
// into the current space per element like Next.
func (a *TargetedSweep) NextBatch(n int, dst []int) {
	checkN(n)
	for i := range dst {
		dst[i] = a.targets[a.next] % n
		a.next = (a.next + 1) % len(a.targets)
	}
}

// NextBatch implements BatchAttack: the same folded address repeated.
func (a *Repeated) NextBatch(n int, dst []int) {
	checkN(n)
	v := a.addr % n
	for i := range dst {
		dst[i] = v
	}
}

// NextBatch implements BatchAttack: per-element Zipf draws in stream
// order, identical to repeated Next calls.
func (a *HotCold) NextBatch(n int, dst []int) {
	checkN(n)
	for i := range dst {
		v := a.perm[a.zipf.Draw(a.src)]
		if v >= n {
			v %= n
		}
		dst[i] = v
	}
}

// NextBatch implements BatchAttack: per-element uniform draws in stream
// order, identical to repeated Next calls.
func (a *RandomUniform) NextBatch(n int, dst []int) {
	checkN(n)
	for i := range dst {
		dst[i] = a.src.Intn(n)
	}
}
