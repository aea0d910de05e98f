// Package attack implements the adversarial and benign write-address
// generators of the paper's evaluation:
//
//   - UAA — the Uniform Address Attack of Section 3: one write to each
//     line, one by one, repeated forever. It defeats hot/cold remapping
//     because no line is ever hotter than another.
//   - BPA — the Birthday Paradox Attack (Seong et al., ISCA'10): the
//     attacker hammers a small set of addresses, probing the randomized
//     remapping for collisions. At lifetime granularity its effect is a
//     concentrated hot set that wear leveling keeps relocating.
//   - Repeated — the classic single-address hammer.
//   - HotCold — a benign Zipf workload exhibiting the locality that
//     cold/hot remapping schemes were designed for (used as the control).
//   - RandomUniform — uniformly random writes over the whole space.
//
// An Attack is a stream: Next(n) returns the next logical line to write
// given the current logical-space size n (the size can shrink under
// Physical Capacity Degradation, so it is an argument, not construction
// state).
package attack

import (
	"fmt"

	"maxwe/internal/xrand"
)

// Attack generates the logical write-address stream.
type Attack interface {
	// Name identifies the attack in reports.
	Name() string
	// Next returns the next logical line to write, in [0, n). n is the
	// current logical-space size and must be positive.
	Next(n int) int
}

// UAA is the Uniform Address Attack: sequential, uniform, endless.
type UAA struct {
	next int
}

// NewUAA returns a fresh uniform address attack starting at line 0.
func NewUAA() *UAA { return &UAA{} }

// Name implements Attack.
func (a *UAA) Name() string { return "uaa" }

// Next implements Attack.
func (a *UAA) Next(n int) int {
	checkN(n)
	if a.next >= n {
		// The space shrank (PCD); wrap to keep the sweep uniform.
		a.next = 0
	}
	v := a.next
	a.next++
	if a.next == n {
		a.next = 0
	}
	return v
}

// PartialUAA is the Section 3.2 implementation model of UAA: a malicious
// process can mmap/malloc only the user-reachable share of physical
// memory (the paper measures the kernel holding <5% on a 4 GB Linux
// machine, with swappiness=0 pinning the rest). The attack sweeps the
// first coverage fraction of the logical space uniformly and never
// touches the remainder.
type PartialUAA struct {
	coverage float64
	next     int
}

// NewPartialUAA builds a uniform sweep over the first coverage fraction
// of the address space, coverage in (0, 1].
func NewPartialUAA(coverage float64) *PartialUAA {
	if coverage <= 0 || coverage > 1 {
		panic("attack: NewPartialUAA needs coverage in (0, 1]")
	}
	return &PartialUAA{coverage: coverage}
}

// Coverage returns the attacked fraction of the address space.
func (a *PartialUAA) Coverage() float64 { return a.coverage }

// Name implements Attack.
func (a *PartialUAA) Name() string { return "partial-uaa" }

// Next implements Attack.
func (a *PartialUAA) Next(n int) int {
	checkN(n)
	limit := int(a.coverage * float64(n))
	if limit < 1 {
		limit = 1
	}
	if a.next >= limit {
		a.next = 0
	}
	v := a.next
	a.next++
	if a.next == limit {
		a.next = 0
	}
	return v
}

// BPA hammers a fixed-size set of victim addresses round-robin,
// re-drawing the set every Repick writes to model the attacker probing
// the randomized mapping for new collisions.
type BPA struct {
	setSize int
	repick  int
	victims []int
	cursor  int
	writes  int
	src     *xrand.Source
	spaceN  int
	// ring repeats victims whole to at least len(victims)+bpaRun entries,
	// so ring[cursor:] holds the next bpaRun addresses in order. draw
	// empties it and NextBatch refills it, so Next alone never pays for
	// it (PCD re-draws on every wear-out and draws with Next).
	ring []int
}

// bpaRun is the longest stretch NextBatch fills with one copy: the sim's
// epoch length.
const bpaRun = 1024

// NewBPA builds a birthday-paradox attack with setSize victim addresses,
// re-drawn every repick writes (0 disables re-drawing).
func NewBPA(setSize, repick int, src *xrand.Source) *BPA {
	if setSize < 1 {
		panic("attack: NewBPA needs setSize >= 1")
	}
	if repick < 0 {
		panic("attack: NewBPA needs repick >= 0")
	}
	if src == nil {
		panic("attack: NewBPA needs a randomness source")
	}
	return &BPA{setSize: setSize, repick: repick, src: src}
}

// DefaultBPA returns the configuration used by the benchmarks: 16 victim
// lines re-drawn every 100k writes.
func DefaultBPA(src *xrand.Source) *BPA { return NewBPA(16, 100_000, src) }

// Name implements Attack.
func (a *BPA) Name() string { return "bpa" }

// Next implements Attack.
func (a *BPA) Next(n int) int {
	checkN(n)
	if a.victims == nil || a.spaceN != n || (a.repick > 0 && a.writes >= a.repick) {
		a.draw(n)
	}
	v := a.victims[a.cursor]
	a.cursor = (a.cursor + 1) % len(a.victims)
	a.writes++
	return v
}

func (a *BPA) draw(n int) {
	k := a.setSize
	if k > n {
		k = n
	}
	a.victims = a.victims[:0]
	seen := map[int]bool{}
	for len(a.victims) < k {
		v := a.src.Intn(n)
		if !seen[v] {
			seen[v] = true
			a.victims = append(a.victims, v)
		}
	}
	a.cursor = 0
	a.writes = 0
	a.spaceN = n
	a.ring = a.ring[:0]
}

// TargetedSweep writes a fixed list of victim addresses round-robin — the
// informed adversary that knows which lines are weak (the paper's
// attacker explicitly does not; this models the stronger threat as an
// extension).
type TargetedSweep struct {
	targets []int
	next    int
}

// NewTargetedSweep builds a sweep over the given victim addresses. The
// list is copied and must be non-empty with non-negative entries.
func NewTargetedSweep(targets []int) *TargetedSweep {
	if len(targets) == 0 {
		panic("attack: NewTargetedSweep needs at least one target")
	}
	ts := &TargetedSweep{targets: append([]int(nil), targets...)}
	for _, t := range ts.targets {
		if t < 0 {
			panic("attack: NewTargetedSweep needs non-negative targets")
		}
	}
	return ts
}

// Name implements Attack.
func (a *TargetedSweep) Name() string { return "targeted-sweep" }

// Next implements Attack.
func (a *TargetedSweep) Next(n int) int {
	checkN(n)
	v := a.targets[a.next] % n
	a.next = (a.next + 1) % len(a.targets)
	return v
}

// Repeated hammers one fixed address.
type Repeated struct {
	addr int
}

// NewRepeated builds a single-address hammer on addr.
func NewRepeated(addr int) *Repeated {
	if addr < 0 {
		panic("attack: NewRepeated needs a non-negative address")
	}
	return &Repeated{addr: addr}
}

// Name implements Attack.
func (a *Repeated) Name() string { return "repeated" }

// Next implements Attack.
func (a *Repeated) Next(n int) int {
	checkN(n)
	return a.addr % n
}

// HotCold is a benign Zipf-distributed workload over a shuffled rank
// assignment: a small set of hot lines receives most writes.
type HotCold struct {
	zipf *xrand.Zipf
	perm []int
	src  *xrand.Source
}

// NewHotCold builds a Zipf(s) workload over n logical lines. The rank->
// address assignment is a random permutation so hot lines are scattered.
func NewHotCold(n int, s float64, src *xrand.Source) *HotCold {
	if n < 1 {
		panic("attack: NewHotCold needs n >= 1")
	}
	if src == nil {
		panic("attack: NewHotCold needs a randomness source")
	}
	return &HotCold{zipf: xrand.NewZipf(n, s), perm: src.Perm(n), src: src}
}

// Name implements Attack.
func (a *HotCold) Name() string { return "hotcold" }

// Next implements Attack.
func (a *HotCold) Next(n int) int {
	checkN(n)
	v := a.perm[a.zipf.Draw(a.src)]
	if v >= n {
		// Space shrank below the built size; fold uniformly.
		v %= n
	}
	return v
}

// RandomUniform writes uniformly random addresses.
type RandomUniform struct {
	src *xrand.Source
}

// NewRandomUniform builds a uniformly random write stream.
func NewRandomUniform(src *xrand.Source) *RandomUniform {
	if src == nil {
		panic("attack: NewRandomUniform needs a randomness source")
	}
	return &RandomUniform{src: src}
}

// Name implements Attack.
func (a *RandomUniform) Name() string { return "random" }

// Next implements Attack.
func (a *RandomUniform) Next(n int) int {
	checkN(n)
	return a.src.Intn(n)
}

func checkN(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("attack: logical space size %d must be positive", n))
	}
}
