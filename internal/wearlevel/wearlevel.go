// Package wearlevel implements the wear-leveling substrates the paper
// layers under the spare-line schemes (Sections 2.2.1, 3.3.1 and 5):
//
//   - Identity — no wear leveling (the UAA experiments, where the paper
//     shows the choice of wear-leveling scheme is irrelevant).
//   - Start-Gap (Qureshi et al., MICRO'09) — the classic algebraic
//     scheme, faithfully implemented with a moving gap line and a start
//     pointer.
//   - TLSR — two-level security refresh (Seong et al., ISCA'10): keyed
//     randomized remapping, refreshed incrementally. Modeled as periodic
//     uniformly-random relocation of lines.
//   - PCM-S (Seznec) — secure random swap: like TLSR but with a jittered
//     (randomized) swap interval.
//   - BWL (Yun et al., TVLSI'15) — endurance-variation-aware: dwell time
//     on a location scales with the location's endurance metric.
//   - WAWL (Zhou et al., ICPADS'16) — endurance-variation-aware: both the
//     relocation target ("chosen probability") and the swap interval scale
//     with the endurance metric, approaching proportional-fill wear.
//   - TWL (Zhang & Sun, DAC'17) — toss-up wear leveling: writes toss
//     between a bonded strong/weak location pair with endurance-weighted
//     probability.
//
// Remapping moves data, and data movement is real writes: every swap
// issues device writes through the Mover, reproducing the write
// amplification of the paper's Figure 2 (one swap adds two extra writes).
//
// The randomized schemes are behavioural models: they reproduce the
// published schemes' steady-state placement and remap-traffic behaviour
// (uniform randomization for TLSR/PCM-S; endurance-biased placement and
// dwell for BWL/WAWL) rather than their exact hardware tables, which is
// the level of detail the paper's lifetime evaluation depends on.
package wearlevel

import (
	"fmt"
	"math"

	"maxwe/internal/xrand"
)

// Mover performs data-movement writes on behalf of a leveler. WriteSlot
// returns false when the device has failed; the leveler must stop moving
// and propagate the failure.
type Mover interface {
	WriteSlot(u int) bool
}

// Leveler translates logical line addresses to user-physical slots and
// advances its remap schedule on every user write.
type Leveler interface {
	// Name identifies the scheme in reports.
	Name() string
	// LogicalLines returns the size of the logical address space.
	LogicalLines() int
	// Translate maps a logical line in [0, LogicalLines()) to a user slot.
	Translate(lla int) int
	// OnWrite is invoked once per user write, after the write completed,
	// and may move data through mov. It returns false if the device
	// failed during remap traffic.
	OnWrite(lla int, mov Mover) bool
}

// ---------------------------------------------------------------------------
// Construction by name

// buildArgs carries New's arguments to a table entry.
type buildArgs struct {
	slots   int
	metrics func() []float64
	psi     int
	src     *xrand.Source
}

// builders is the one table of wear-leveler names; New and Names read it.
var builders = []struct {
	name  string
	build func(a buildArgs) (Leveler, error)
}{
	{"identity", func(a buildArgs) (Leveler, error) { return NewIdentity(a.slots), nil }},
	{"start-gap", func(a buildArgs) (Leveler, error) { return NewStartGap(a.slots, a.psi), nil }},
	{"partitioned-start-gap", func(a buildArgs) (Leveler, error) {
		const partitions = 8
		if a.slots%partitions != 0 || a.slots/partitions < 2 {
			return nil, fmt.Errorf("wearlevel: partitioned-start-gap needs the user space divisible into %d partitions of >= 2 slots, got %d", partitions, a.slots)
		}
		return NewPartitioned(partitions, a.slots/partitions, a.src,
			func(_, partSlots int) Leveler { return NewStartGap(partSlots, a.psi) }), nil
	}},
	{"stress-aware", func(a buildArgs) (Leveler, error) { return NewStressAware(a.slots, a.psi), nil }},
	{"twl", func(a buildArgs) (Leveler, error) {
		if a.slots%2 != 0 {
			return nil, fmt.Errorf("wearlevel: twl needs an even user space, got %d slots", a.slots)
		}
		return NewTWL(a.slots, a.metrics(), a.src), nil
	}},
	{"tlsr", func(a buildArgs) (Leveler, error) { return NewTLSR(a.slots, a.psi, a.src), nil }},
	{"pcm-s", func(a buildArgs) (Leveler, error) { return NewPCMS(a.slots, a.psi, a.src), nil }},
	{"bwl", func(a buildArgs) (Leveler, error) { return NewBWL(a.slots, a.metrics(), a.psi, a.src), nil }},
	{"wawl", func(a buildArgs) (Leveler, error) { return NewWAWL(a.slots, a.metrics(), a.psi, a.src), nil }},
	{"security-refresh", func(a buildArgs) (Leveler, error) {
		if a.slots < 2 || a.slots&(a.slots-1) != 0 {
			return nil, fmt.Errorf("wearlevel: security-refresh needs a power-of-two user space, got %d slots", a.slots)
		}
		return NewSecurityRefresh(a.slots, a.psi, a.src), nil
	}},
	{"tlsr-exact", func(a buildArgs) (Leveler, error) {
		if a.slots < 4 || a.slots&(a.slots-1) != 0 {
			return nil, fmt.Errorf("wearlevel: tlsr-exact needs a power-of-two user space >= 4, got %d slots", a.slots)
		}
		subSize := 64
		for subSize > a.slots/2 {
			subSize /= 2
		}
		return NewTwoLevelSecurityRefresh(a.slots/subSize, subSize, a.psi*8, a.psi, a.src), nil
	}},
}

// New constructs the named wear-leveling substrate over slots user slots
// with remap period psi. metrics yields the per-slot endurance metric and
// is called only by the endurance-aware substrates (twl, bwl, wawl); the
// randomized substrates draw from src. An unknown name, or a slot count
// the named substrate cannot cover, is an error.
func New(name string, slots int, metrics func() []float64, psi int, src *xrand.Source) (Leveler, error) {
	for _, b := range builders {
		if b.name == name {
			return b.build(buildArgs{slots: slots, metrics: metrics, psi: psi, src: src})
		}
	}
	return nil, fmt.Errorf("wearlevel: unknown wear-leveling scheme %q", name)
}

// Names lists every name New accepts.
func Names() []string {
	names := make([]string, len(builders))
	for i, b := range builders {
		names[i] = b.name
	}
	return names
}

// ---------------------------------------------------------------------------
// Identity

// Identity is the no-wear-leveling baseline.
type Identity struct{ n int }

// NewIdentity returns the identity leveler over n slots.
func NewIdentity(n int) *Identity {
	if n <= 0 {
		panic("wearlevel: NewIdentity needs positive slots")
	}
	return &Identity{n: n}
}

// Name implements Leveler.
func (l *Identity) Name() string { return "identity" }

// LogicalLines implements Leveler.
func (l *Identity) LogicalLines() int { return l.n }

// Translate implements Leveler.
func (l *Identity) Translate(lla int) int {
	if lla < 0 || lla >= l.n {
		panic(fmt.Sprintf("wearlevel: logical line %d out of range [0,%d)", lla, l.n))
	}
	return lla
}

// OnWrite implements Leveler.
func (l *Identity) OnWrite(int, Mover) bool { return true }

// ---------------------------------------------------------------------------
// Start-Gap

// StartGap implements Qureshi et al.'s start-gap wear leveling over n
// slots: n-1 logical lines rotate through n physical slots around a moving
// gap. Every Psi user writes the gap advances by one slot, costing one
// data-movement write.
type StartGap struct {
	n     int // physical slots
	psi   int
	start int
	gap   int
	since int
}

// NewStartGap builds a start-gap leveler over n >= 2 slots with gap period
// psi >= 1.
func NewStartGap(n, psi int) *StartGap {
	if n < 2 {
		panic("wearlevel: NewStartGap needs at least 2 slots")
	}
	if psi < 1 {
		panic("wearlevel: NewStartGap needs psi >= 1")
	}
	return &StartGap{n: n, psi: psi, gap: n - 1}
}

// Name implements Leveler.
func (l *StartGap) Name() string { return "start-gap" }

// LogicalLines implements Leveler.
func (l *StartGap) LogicalLines() int { return l.n - 1 }

// Translate implements PA = (LA + Start) mod (N-1), incremented past the
// gap.
func (l *StartGap) Translate(lla int) int {
	if lla < 0 || lla >= l.n-1 {
		panic(fmt.Sprintf("wearlevel: logical line %d out of range [0,%d)", lla, l.n-1))
	}
	pa := (lla + l.start) % (l.n - 1)
	if pa >= l.gap {
		pa++
	}
	return pa
}

// Gap returns the current gap slot (exported for tests and visualization).
func (l *StartGap) Gap() int { return l.gap }

// Start returns the current start offset.
func (l *StartGap) Start() int { return l.start }

// OnWrite implements Leveler.
func (l *StartGap) OnWrite(_ int, mov Mover) bool {
	l.since++
	if l.since < l.psi {
		return true
	}
	l.since = 0
	// Move the line above the gap into the gap slot: one device write.
	if l.gap == 0 {
		// Gap wraps: a full rotation completed; advance start.
		l.gap = l.n - 1
		l.start = (l.start + 1) % (l.n - 1)
		return true
	}
	if !mov.WriteSlot(l.gap) {
		return false
	}
	l.gap--
	return true
}

// ---------------------------------------------------------------------------
// Randomized swap levelers (TLSR, PCM-S, BWL, WAWL)

// SwapWL is the shared machinery of the randomized remapping schemes: a
// permutation from logical lines to slots, a per-logical-line write credit,
// and a relocation policy. When a line's credit is exhausted it swaps
// places with a policy-chosen partner, at a cost of two data-movement
// writes (Figure 2 of the paper).
type SwapWL struct {
	name   string
	perm   []int // logical -> slot
	inv    []int // slot -> logical
	credit []int

	// psi is the base dwell in writes.
	psi int
	// pickGamma biases relocation-target choice toward strong slots:
	// probability ∝ metric^pickGamma (0 = uniform).
	pickGamma float64
	// dwellGamma scales dwell with the occupied slot's metric:
	// dwell = psi * (metric/meanMetric)^dwellGamma (0 = constant).
	dwellGamma float64
	// slotDwell holds that product per slot, computed once at
	// construction so a relocation pays no math.Pow (nil when dwell is
	// constant).
	slotDwell []float64
	// jitter randomizes each dwell uniformly in [psi/2, 3psi/2) (PCM-S).
	jitter bool

	chooser *xrand.WeightedChooser
	src     *xrand.Source

	swaps int64
}

func newSwapWL(name string, slots int, metrics []float64, psi int,
	pickGamma, dwellGamma float64, jitter bool, src *xrand.Source) *SwapWL {
	if slots <= 1 {
		panic("wearlevel: swap leveler needs at least 2 slots")
	}
	if psi < 1 {
		panic("wearlevel: swap leveler needs psi >= 1")
	}
	if src == nil {
		panic("wearlevel: swap leveler needs a randomness source")
	}
	if metrics != nil && len(metrics) != slots {
		panic("wearlevel: metrics length must equal slots")
	}
	l := &SwapWL{
		name:       name,
		perm:       make([]int, slots),
		inv:        make([]int, slots),
		credit:     make([]int, slots),
		psi:        psi,
		pickGamma:  pickGamma,
		dwellGamma: dwellGamma,
		jitter:     jitter,
		src:        src,
	}
	for i := range l.perm {
		l.perm[i] = i
		l.inv[i] = i
	}
	if metrics != nil {
		sum := 0.0
		for _, m := range metrics {
			if m <= 0 {
				panic("wearlevel: slot metrics must be positive")
			}
			sum += m
		}
		mean := sum / float64(slots)
		if dwellGamma > 0 {
			l.slotDwell = make([]float64, slots)
			for i, m := range metrics {
				l.slotDwell[i] = float64(psi) * math.Pow(m/mean, dwellGamma)
			}
		}
		if pickGamma > 0 {
			w := make([]float64, slots)
			for i, m := range metrics {
				w[i] = math.Pow(m, pickGamma)
			}
			l.chooser = xrand.NewWeightedChooser(w)
		}
	}
	for lla := range l.credit {
		l.credit[lla] = l.dwell(l.perm[lla])
	}
	return l
}

// NewTLSR models two-level security refresh: uniform randomized
// relocation with a fixed refresh period.
func NewTLSR(slots, psi int, src *xrand.Source) *SwapWL {
	return newSwapWL("tlsr", slots, nil, psi, 0, 0, false, src)
}

// NewPCMS models Seznec's secure PCM main memory: uniform randomized
// relocation with a jittered (randomized) swap interval.
func NewPCMS(slots, psi int, src *xrand.Source) *SwapWL {
	return newSwapWL("pcm-s", slots, nil, psi, 0, 0, true, src)
}

// NewBWL models Yun et al.'s dynamic wear leveling under endurance
// variation: relocation targets are uniform but dwell time scales with
// the square root of the slot's endurance metric, shifting a partial share
// of the traffic toward strong lines.
func NewBWL(slots int, metrics []float64, psi int, src *xrand.Source) *SwapWL {
	return newSwapWL("bwl", slots, metrics, psi, 0, 0.5, false, src)
}

// NewWAWL models Zhou et al.'s WAWL, which ties both the chosen
// probability of a region and the swapping interval to the endurance
// metric; the combination makes a line's time-share on a slot proportional
// to the slot's endurance (proportional fill).
func NewWAWL(slots int, metrics []float64, psi int, src *xrand.Source) *SwapWL {
	return newSwapWL("wawl", slots, metrics, psi, 0.5, 0.5, false, src)
}

// Name implements Leveler.
func (l *SwapWL) Name() string { return l.name }

// LogicalLines implements Leveler.
func (l *SwapWL) LogicalLines() int { return len(l.perm) }

// Translate implements Leveler.
func (l *SwapWL) Translate(lla int) int {
	if lla < 0 || lla >= len(l.perm) {
		panic(fmt.Sprintf("wearlevel: logical line %d out of range [0,%d)", lla, len(l.perm)))
	}
	return l.perm[lla]
}

// Swaps returns the number of relocations performed (for amplification
// accounting in tests and reports).
func (l *SwapWL) Swaps() int64 { return l.swaps }

// dwell computes the write credit granted to a line placed on slot.
func (l *SwapWL) dwell(slot int) int {
	d := float64(l.psi)
	if l.slotDwell != nil {
		d = l.slotDwell[slot]
	}
	if l.jitter {
		d *= 0.5 + l.src.Float64()
	}
	if d < 1 {
		return 1
	}
	return int(d)
}

// Pick draws the destination slot of a relocation: the first of
// Relocate's three steps, exposed with Commit so the sim fast path can
// issue the movement writes itself.
func (l *SwapWL) Pick() int {
	if l.chooser != nil {
		return l.chooser.Draw(l.src)
	}
	return l.src.Intn(len(l.perm))
}

// HotState exposes the live logical→slot permutation, its slot→logical
// inverse and the per-line write credits for the devirtualized sim fast
// path (internal/sim), which keeps its own countdown of each line's
// credit and settles it into credit before it calls Pick. The returned
// slices alias the leveler's state and stay valid across relocations
// (they mutate entries, never reallocate).
func (l *SwapWL) HotState() (perm, inv, credit []int) { return l.perm, l.inv, l.credit }

// OnWrite implements Leveler: decrement the line's dwell credit and
// relocate once it is exhausted.
func (l *SwapWL) OnWrite(lla int, mov Mover) bool {
	l.credit[lla]--
	if l.credit[lla] > 0 {
		return true
	}
	return l.Relocate(lla, mov)
}

// Relocate performs the relocation slow path for a line whose credit is
// exhausted (credit[lla] <= 0 after the caller's decrement) in three
// steps: Pick a destination, swap placements at two data-movement writes
// through mov (destination first), and Commit the swap with fresh dwell
// credits. A failed movement write commits nothing. A caller that issues
// the movement writes itself runs the same three steps.
func (l *SwapWL) Relocate(lla int, mov Mover) bool {
	dest := l.Pick()
	if cur := l.perm[lla]; dest != cur {
		// Each move is one device write (Figure 2: a swap adds two extra
		// writes).
		if !mov.WriteSlot(dest) || !mov.WriteSlot(cur) {
			return false
		}
	}
	l.Commit(lla, dest)
	return true
}

// Commit is Relocate's last step, once both movement writes succeeded:
// swap lla with the line on dest and grant both fresh dwells, lla's
// first. Relocating to the current slot moves no data and only grants a
// fresh dwell.
func (l *SwapWL) Commit(lla, dest int) {
	cur := l.perm[lla]
	if dest == cur {
		l.credit[lla] = l.dwell(cur)
		return
	}
	other := l.inv[dest]
	l.perm[lla], l.perm[other] = dest, cur
	l.inv[dest], l.inv[cur] = lla, other
	l.credit[lla] = l.dwell(dest)
	l.credit[other] = l.dwell(cur)
	l.swaps++
}

// ---------------------------------------------------------------------------
// Toss-up wear leveling (TWL)

// TWL bonds slot pairs (one strong, one weak) and tosses each write to one
// member of the pair with endurance-weighted probability, per Zhang & Sun
// (DAC'17). The logical space is half the slot count.
type TWL struct {
	// pairs[i] = {weak slot, strong slot} for logical line i.
	weak, strong []int
	pStrong      []float64
	src          *xrand.Source
}

// NewTWL builds a toss-up leveler over an even number of slots with the
// given per-slot endurance metrics. Slots are sorted by metric; the
// weakest is bonded with the strongest, and so on inward.
func NewTWL(slots int, metrics []float64, src *xrand.Source) *TWL {
	if slots < 2 || slots%2 != 0 {
		panic("wearlevel: NewTWL needs an even slot count >= 2")
	}
	if len(metrics) != slots {
		panic("wearlevel: metrics length must equal slots")
	}
	if src == nil {
		panic("wearlevel: NewTWL needs a randomness source")
	}
	order := make([]int, slots)
	for i := range order {
		order[i] = i
	}
	// Insertion-free ordering: simple index sort by metric ascending,
	// ties broken by slot id for determinism.
	less := func(a, b int) bool {
		if metrics[a] < metrics[b] {
			return true
		}
		if metrics[b] < metrics[a] {
			return false
		}
		return a < b
	}
	for i := 1; i < slots; i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	n := slots / 2
	l := &TWL{
		weak:    make([]int, n),
		strong:  make([]int, n),
		pStrong: make([]float64, n),
		src:     src,
	}
	for i := 0; i < n; i++ {
		w := order[i]
		s := order[slots-1-i]
		l.weak[i], l.strong[i] = w, s
		l.pStrong[i] = metrics[s] / (metrics[s] + metrics[w])
	}
	return l
}

// Name implements Leveler.
func (l *TWL) Name() string { return "twl" }

// LogicalLines implements Leveler.
func (l *TWL) LogicalLines() int { return len(l.weak) }

// Translate tosses the write between the bonded pair: the strong member
// receives it with probability E_strong/(E_strong+E_weak).
func (l *TWL) Translate(lla int) int {
	if lla < 0 || lla >= len(l.weak) {
		panic(fmt.Sprintf("wearlevel: logical line %d out of range [0,%d)", lla, len(l.weak)))
	}
	if l.src.Float64() < l.pStrong[lla] {
		return l.strong[lla]
	}
	return l.weak[lla]
}

// OnWrite implements Leveler.
func (l *TWL) OnWrite(int, Mover) bool { return true }
