// Package spare implements the spare-line replacement schemes the paper
// proposes and compares (Sections 2.2.3, 4 and 5):
//
//   - Max-WE — the paper's contribution: weak-priority spare-region
//     selection, weak-strong matching of SWRs to RWRs with region-level
//     mapping, and dynamic strongest-first line-level sparing for
//     everything else (Section 4).
//   - PS — Physical Sparing: a pool of reserved spare lines replaces
//     failures; the average case reserves random lines, the worst case
//     (PS-worst) reserves strong lines (Section 4.3).
//   - PCD — Physical Capacity Degradation: every physical line starts in
//     service and capacity shrinks as lines die (Section 2.2.3).
//   - None — no protection; the first wear-out kills the device.
//
// A Scheme owns the binding from user-visible physical slots to device
// lines: one live slot→line table per scheme (Bindings), updated in place
// only inside OnWearOut when a slot's line wears out. The simulator
// (internal/sim) indexes that table on every write — its batched loops
// hold the slice itself, its per-write route calls Access — and calls
// OnWearOut when a line's budget is exhausted; the scheme rebinds the
// slot to a spare or declares the device dead.
package spare

import (
	"slices"
	"sort"

	"maxwe/internal/endurance"
	"maxwe/internal/mapping"
	"maxwe/internal/xrand"
)

// lineKey pairs a device line with its endurance so spare-pool
// construction sorts precomputed keys instead of calling LineEndurance
// inside the comparator.
type lineKey struct {
	endurance int64
	line      int
}

// sortByEndurance orders keys by (endurance, line). The line id breaks
// every tie, so the comparator is a total order and the unstable
// sort.Slice yields the exact permutation the former sort.SliceStable did.
func sortByEndurance(keys []lineKey) {
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].endurance != keys[b].endurance {
			return keys[a].endurance < keys[b].endurance
		}
		return keys[a].line < keys[b].line
	})
}

// Scheme is the contract between the simulator and a spare-line
// replacement policy.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// UserLines returns the current user-visible capacity in lines. It is
	// constant for every scheme except PCD, whose capacity shrinks.
	UserLines() int
	// Access returns the device line currently backing user slot
	// u in [0, UserLines()): Bindings()[u].
	Access(u int) int
	// Bindings returns the live slot→line table, one entry per user slot:
	// entry u is the device line backing slot u. Callers read it and never
	// write it. The scheme changes it only inside OnWearOut, in place, and
	// OnWearOut(u) changes only entry u, except that PCD also cuts the
	// table by one (the former last entry moves into u). So a caller may
	// hold the slice across writes and must fetch it again only after a
	// wear-out that shrank UserLines.
	Bindings() []int32
	// BaseLine returns the boot-time device line of slot u, independent of
	// later replacements. Wear-leveling substrates use it to attach a
	// fixed endurance metric to each slot (see SlotMetrics).
	BaseLine(u int) int
	// OnWearOut reports that the line backing slot u has worn out and asks
	// the scheme to rebind the slot. It returns false when the scheme is
	// out of spares — the device has failed.
	OnWearOut(u int) bool
	// SpareLinesTotal returns the number of provisioned spare lines.
	SpareLinesTotal() int
	// SpareLinesUsed returns how many spare lines have been consumed.
	SpareLinesUsed() int
}

// binding is the slot→line table every scheme embeds. line[u] is the
// device line backing user slot u, base[u] its boot-time line, and the
// user space is [0, len(line)). Out-of-range slots panic on the index.
type binding struct {
	line, base []int32
}

// UserLines implements Scheme.
func (b *binding) UserLines() int { return len(b.line) }

// Access implements Scheme.
func (b *binding) Access(u int) int { return int(b.line[u]) }

// Bindings implements Scheme.
func (b *binding) Bindings() []int32 { return b.line }

// BaseLine implements Scheme.
func (b *binding) BaseLine(u int) int { return int(b.base[u]) }

// SlotMetrics returns each user slot's endurance metric for the
// endurance-aware wear levelers: the manufacture-time metric of the region
// holding the slot's base line.
func SlotMetrics(s Scheme, p *endurance.Profile) []float64 {
	ms := make([]float64, s.UserLines())
	for u := range ms {
		ms[u] = p.RegionMetric(p.RegionOf(s.BaseLine(u)))
	}
	return ms
}

// identity returns the table 0, 1, ..., n-1.
func identity(n int) []int32 {
	t := make([]int32, n)
	for i := range t {
		t[i] = int32(i)
	}
	return t
}

// ---------------------------------------------------------------------------
// None

// NoneScheme exposes every line and fails on the first wear-out — the
// paper's unprotected baseline (the 4.1% row of Figure 6).
type NoneScheme struct {
	binding
}

// NewNone builds the unprotected scheme over a device with n lines.
func NewNone(n int) *NoneScheme {
	if n <= 0 {
		panic("spare: NewNone needs positive line count")
	}
	// No slot is ever rebound, so the live and boot-time tables can share.
	t := identity(n)
	return &NoneScheme{binding{line: t, base: t}}
}

// Name implements Scheme.
func (s *NoneScheme) Name() string { return "none" }

// OnWearOut implements Scheme.
func (s *NoneScheme) OnWearOut(u int) bool { return false }

// SpareLinesTotal implements Scheme.
func (s *NoneScheme) SpareLinesTotal() int { return 0 }

// SpareLinesUsed implements Scheme.
func (s *NoneScheme) SpareLinesUsed() int { return 0 }

// ---------------------------------------------------------------------------
// Physical Sparing (PS)

// PSScheme reserves a pool of spare lines; worn lines are replaced from
// the pool until it runs dry.
type PSScheme struct {
	binding
	name  string
	pool  []int // unconsumed spare lines, next allocation at the end
	total int
}

// PSPolicy selects which lines become spares.
type PSPolicy int

const (
	// PSRandom reserves uniformly random lines — the paper's PS average
	// case, whose lifetime Ferreira et al. showed tracks PCD.
	PSRandom PSPolicy = iota
	// PSWorst reserves the strongest lines, leaving all weak lines in
	// service — the paper's PS worst case (Equation 8).
	PSWorst
	// PSBest reserves the weakest lines (keeping them out of service),
	// a useful control that isolates the first half of Max-WE's idea.
	PSBest
)

// String returns the policy name used in reports.
func (p PSPolicy) String() string {
	switch p {
	case PSRandom:
		return "ps-random"
	case PSWorst:
		return "ps-worst"
	case PSBest:
		return "ps-best"
	}
	return "ps-unknown"
}

// NewPS builds a physical-sparing scheme with spareLines reserved lines
// chosen per policy over the profile. src supplies randomness for
// PSRandom; it may be nil for the deterministic policies.
func NewPS(p *endurance.Profile, spareLines int, policy PSPolicy, src *xrand.Source) *PSScheme {
	n := p.Lines()
	if spareLines < 0 || spareLines >= n {
		panic("spare: NewPS spareLines out of range")
	}
	var spares []int
	switch policy {
	case PSRandom:
		if src == nil {
			panic("spare: PSRandom needs a randomness source")
		}
		perm := src.Perm(n)
		spares = append(spares, perm[:spareLines]...)
	case PSWorst, PSBest:
		keys := make([]lineKey, n)
		for i := range keys {
			keys[i] = lineKey{endurance: p.LineEndurance(i), line: i}
		}
		sortByEndurance(keys)
		if policy == PSWorst {
			for _, k := range keys[n-spareLines:] {
				spares = append(spares, k.line)
			}
		} else {
			for _, k := range keys[:spareLines] {
				spares = append(spares, k.line)
			}
		}
	default:
		panic("spare: unknown PS policy")
	}
	isSpare := make([]bool, n)
	for _, l := range spares {
		isSpare[l] = true
	}
	s := &PSScheme{name: policy.String(), total: spareLines}
	for l := 0; l < n; l++ {
		if !isSpare[l] {
			s.base = append(s.base, int32(l))
		}
	}
	s.line = slices.Clone(s.base)
	// Allocation order: consume from the end of pool; keep the sampled /
	// sorted order so PSRandom allocates randomly and PSWorst/PSBest
	// allocate weakest-first (a deliberately naive FIFO-by-weakness).
	s.pool = spares
	return s
}

// Name implements Scheme.
func (s *PSScheme) Name() string { return s.name }

// OnWearOut implements Scheme.
func (s *PSScheme) OnWearOut(u int) bool {
	if len(s.pool) == 0 {
		return false
	}
	s.line[u] = int32(s.pool[len(s.pool)-1])
	s.pool = s.pool[:len(s.pool)-1]
	return true
}

// SpareLinesTotal implements Scheme.
func (s *PSScheme) SpareLinesTotal() int { return s.total }

// SpareLinesUsed implements Scheme.
func (s *PSScheme) SpareLinesUsed() int { return s.total - len(s.pool) }

// ---------------------------------------------------------------------------
// Physical Capacity Degradation (PCD)

// PCDScheme starts with every physical line in service. When a line dies,
// the address space shrinks by one (the last slot's line moves into the
// dead slot, and both tables are cut by one). The device fails when
// capacity drops below minCapacity.
type PCDScheme struct {
	binding
	lines       int
	minCapacity int
}

// NewPCD builds a capacity-degradation scheme over n lines that fails once
// fewer than minCapacity lines remain. The spare-budget equivalent is
// n - minCapacity lines.
func NewPCD(n, minCapacity int) *PCDScheme {
	if n <= 0 || minCapacity <= 0 || minCapacity > n {
		panic("spare: NewPCD needs 0 < minCapacity <= n")
	}
	return &PCDScheme{binding: binding{line: identity(n), base: identity(n)},
		lines: n, minCapacity: minCapacity}
}

// Name implements Scheme.
func (s *PCDScheme) Name() string { return "pcd" }

// OnWearOut implements Scheme.
func (s *PCDScheme) OnWearOut(u int) bool {
	last := len(s.line) - 1
	if last < s.minCapacity {
		return false
	}
	s.line[u], s.base[u] = s.line[last], s.base[last]
	s.line, s.base = s.line[:last], s.base[:last]
	return true
}

// SpareLinesTotal implements Scheme.
func (s *PCDScheme) SpareLinesTotal() int { return s.lines - s.minCapacity }

// SpareLinesUsed implements Scheme.
func (s *PCDScheme) SpareLinesUsed() int { return s.lines - len(s.line) }

// ---------------------------------------------------------------------------
// Max-WE

// MaxWEOptions expose the design choices of Section 4 for ablation.
type MaxWEOptions struct {
	// SpareFraction is p, the share of total capacity reserved as spares
	// (the paper settles on 0.10 in Section 5.2.1).
	SpareFraction float64
	// SWRFraction is q, the share of spare capacity managed as SWRs with
	// region-level mapping (the paper settles on 0.90 in Section 5.2.2).
	SWRFraction float64
	// WeakPriority selects the weakest regions as spares (the paper's
	// weak-priority strategy). Disabling it picks spare regions uniformly
	// at random — the ablation of Section 4.1's first idea.
	WeakPriority bool
	// WeakStrongMatching pairs the strongest SWR with the weakest RWR
	// (the paper's strategy). Disabling it pairs them in index order —
	// the ablation of Section 4.1's second idea.
	WeakStrongMatching bool
	// StrongestSpareFirst allocates dynamic spare lines strongest-first
	// (Section 4.2). Disabling it allocates in address order.
	StrongestSpareFirst bool
	// Rand is needed only when WeakPriority is disabled.
	Rand *xrand.Source
}

// DefaultMaxWEOptions returns the paper's configuration: 10% spares, 90%
// SWRs, all three strategies on.
func DefaultMaxWEOptions() MaxWEOptions {
	return MaxWEOptions{
		SpareFraction:       0.10,
		SWRFraction:         0.90,
		WeakPriority:        true,
		WeakStrongMatching:  true,
		StrongestSpareFirst: true,
	}
}

// MaxWEScheme implements the paper's scheme. Geometry:
//
//   - spareRegions = round(p * R) regions are reserved; of those,
//     swrRegions = floor(q * spareRegions) become SWRs and the remainder
//     become additional (dynamic) spare regions;
//   - with weak-priority, SWRs are the weakest spareRegions... precisely:
//     the weakest swrRegions regions become SWRs, the next weakest
//     swrRegions regions are the RWRs (which stay in service), and the
//     following addRegions weakest regions become the additional spares —
//     exactly the ordering of the paper's Figure 3 example;
//   - weak-strong matching pairs SWRs (descending endurance) with RWRs
//     (ascending endurance) in the RMT;
//   - wear-outs inside RWRs flip the RMT tag; all other wear-outs allocate
//     the strongest remaining dynamic spare line through the LMT.
//
// A slot's translation through the tables changes only when its line
// wears out, so OnWearOut resolves it then and stores the result in the
// binding: Access is one table load, and the tables are read only at
// wear-outs.
type MaxWEScheme struct {
	binding
	profile *endurance.Profile
	opts    MaxWEOptions

	hybrid *mapping.Hybrid
	pool   []int // dynamic spare lines; next allocation at the end
	total  int
	used   int

	swrRegions []int
	rwrRegions []int
	addRegions []int
}

// NewMaxWE builds the scheme over profile with the given options.
func NewMaxWE(p *endurance.Profile, opts MaxWEOptions) *MaxWEScheme {
	if opts.SpareFraction < 0 || opts.SpareFraction > 0.5 {
		panic("spare: MaxWE SpareFraction must be in [0, 0.5] so the RWRs fit")
	}
	if opts.SWRFraction < 0 || opts.SWRFraction > 1 {
		panic("spare: MaxWE SWRFraction must be in [0, 1]")
	}
	r := p.Regions()
	lpr := p.LinesPerRegion()
	spareRegions := int(opts.SpareFraction*float64(r) + 0.5)
	swrRegions := int(opts.SWRFraction * float64(spareRegions))
	addRegions := spareRegions - swrRegions
	if 2*swrRegions+addRegions > r {
		panic("spare: MaxWE configuration leaves no user regions")
	}

	s := &MaxWEScheme{
		profile: p,
		opts:    opts,
		hybrid:  mapping.NewHybrid(lpr),
		total:   spareRegions * lpr,
	}

	// Region role assignment.
	order := p.RegionsByMetricAsc()
	if !opts.WeakPriority {
		if opts.Rand == nil {
			panic("spare: MaxWE without weak-priority needs Rand")
		}
		// Random spare selection: shuffle the candidate order, but the
		// RWRs must still be the weakest of the *remaining* regions —
		// the scheme always knows the endurance ordering.
		shuffled := make([]int, len(order))
		copy(shuffled, order)
		opts.Rand.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		spareSet := map[int]bool{}
		for _, reg := range shuffled[:swrRegions+addRegions] {
			spareSet[reg] = true
		}
		var spares, rest []int
		for _, reg := range order { // keep endurance order within groups
			if spareSet[reg] {
				spares = append(spares, reg)
			} else {
				rest = append(rest, reg)
			}
		}
		s.swrRegions = append(s.swrRegions, spares[:swrRegions]...)
		s.addRegions = append(s.addRegions, spares[swrRegions:]...)
		s.rwrRegions = append(s.rwrRegions, rest[:swrRegions]...)
	} else {
		s.swrRegions = append(s.swrRegions, order[:swrRegions]...)
		s.rwrRegions = append(s.rwrRegions, order[swrRegions:2*swrRegions]...)
		s.addRegions = append(s.addRegions, order[2*swrRegions:2*swrRegions+addRegions]...)
	}

	// Weak-strong matching: SWRs strongest-first against RWRs
	// weakest-first. Groups above are in ascending endurance order.
	for i := 0; i < swrRegions; i++ {
		var sra int
		if opts.WeakStrongMatching {
			sra = s.swrRegions[swrRegions-1-i] // strongest SWR first
		} else {
			sra = s.swrRegions[i]
		}
		pra := s.rwrRegions[i] // weakest RWR first
		s.hybrid.RMT.AddPair(pra, sra)
	}

	// Dynamic spare pool: all lines of the additional spare regions,
	// ordered so allocation (from the end) is strongest-first when
	// requested.
	for _, reg := range s.addRegions {
		for l := 0; l < lpr; l++ {
			s.pool = append(s.pool, reg*lpr+l)
		}
	}
	if opts.StrongestSpareFirst {
		// Weakest at the front so the strongest is popped first.
		keys := make([]lineKey, len(s.pool))
		for i, l := range s.pool {
			keys[i] = lineKey{endurance: p.LineEndurance(l), line: l}
		}
		sortByEndurance(keys)
		for i, k := range keys {
			s.pool[i] = k.line
		}
	} else {
		// Address order with the next allocation (end of slice) being the
		// lowest address: reverse.
		for i, j := 0, len(s.pool)-1; i < j; i, j = i+1, j-1 {
			s.pool[i], s.pool[j] = s.pool[j], s.pool[i]
		}
	}

	// User space: every line outside SWR and additional spare regions.
	spareRegion := make([]bool, r)
	for _, reg := range s.swrRegions {
		spareRegion[reg] = true
	}
	for _, reg := range s.addRegions {
		spareRegion[reg] = true
	}
	for reg := 0; reg < r; reg++ {
		if spareRegion[reg] {
			continue
		}
		for l := 0; l < lpr; l++ {
			s.base = append(s.base, int32(reg*lpr+l))
		}
	}
	// Empty tables translate every line to itself.
	s.line = slices.Clone(s.base)
	return s
}

// Name implements Scheme.
func (s *MaxWEScheme) Name() string { return "max-we" }

// OnWearOut runs the replacement procedure of Section 4.2 in the tables,
// then stores slot u's new translation — the read/write path of Section
// 4.2, LMT, then RMT, then LMT again — in the binding. No other slot's
// translation changes: every table entry the procedure writes is keyed by
// u's base line or by the SWR line paired with it.
func (s *MaxWEScheme) OnWearOut(u int) bool {
	base := int(s.base[u])
	if !s.replace(base) {
		return false
	}
	s.line[u] = int32(s.hybrid.Translate(base))
	return true
}

// replace updates the tables for the wear-out of the line backing base.
func (s *MaxWEScheme) replace(base int) bool {
	if s.hybrid.RMT.HasRegion(s.profile.RegionOf(base)) {
		line, replaced := s.hybrid.RMT.Translate(base)
		if !replaced {
			// First failure of an RWR line: flip the wear-out tag; the
			// permanent region pairing supplies the replacement.
			s.hybrid.RMT.MarkWorn(base)
			return true
		}
		// The SWR replacement line (or its dynamic successor) has died:
		// rescue through the LMT keyed by the SWR line.
		return s.allocDynamic(line)
	}
	// A line outside the RWRs (or a dynamic spare backing it) died.
	return s.allocDynamic(base)
}

// allocDynamic binds the next dynamic spare to key in the LMT, replacing
// any prior binding (the dead spare's entry).
func (s *MaxWEScheme) allocDynamic(key int) bool {
	if len(s.pool) == 0 {
		return false
	}
	spareLine := s.pool[len(s.pool)-1]
	s.pool = s.pool[:len(s.pool)-1]
	s.hybrid.LMT.Add(key, spareLine)
	s.used++
	return true
}

// SpareLinesTotal implements Scheme.
func (s *MaxWEScheme) SpareLinesTotal() int { return s.total }

// SpareLinesUsed implements Scheme.
func (s *MaxWEScheme) SpareLinesUsed() int {
	return s.used + s.hybrid.RMT.WornTags()
}

// SWRRegionIDs returns the SWR region ids in ascending endurance order.
func (s *MaxWEScheme) SWRRegionIDs() []int { return append([]int(nil), s.swrRegions...) }

// RWRRegionIDs returns the RWR region ids in ascending endurance order.
func (s *MaxWEScheme) RWRRegionIDs() []int { return append([]int(nil), s.rwrRegions...) }

// AdditionalRegionIDs returns the dynamic spare region ids.
func (s *MaxWEScheme) AdditionalRegionIDs() []int { return append([]int(nil), s.addRegions...) }

// Mapping exposes the hybrid tables (read-only use expected) for overhead
// reporting and white-box tests.
func (s *MaxWEScheme) Mapping() *mapping.Hybrid { return s.hybrid }

// CorruptMetadata injects one metadata fault into the scheme's hybrid
// mapping tables (the fault-injection layer's metadata fault class). It
// returns false when the tables hold no entries to corrupt. Access keeps
// returning the bindings resolved at earlier wear-outs, but an OnWearOut
// before the next ScrubMetadata may resolve through the damaged entry
// (the simulator scrubs in the same write, before any wear-out).
func (s *MaxWEScheme) CorruptMetadata(src *xrand.Source) bool {
	return s.hybrid.Corrupt(src)
}

// ScrubMetadata runs the integrity scrub over the hybrid tables,
// rebuilding corrupted entries from their journal copies, and returns how
// many entries were repaired.
func (s *MaxWEScheme) ScrubMetadata() int { return s.hybrid.Scrub() }
