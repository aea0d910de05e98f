package spare

import (
	"testing"

	"maxwe/internal/endurance"
	"maxwe/internal/xrand"
)

// testProfile: 10 regions x 4 lines, endurance ascending with region id
// (region 0 weakest).
func testProfile() *endurance.Profile {
	return endurance.Linear(10, 4, 100, 4000)
}

func TestNoneScheme(t *testing.T) {
	s := NewNone(16)
	if s.UserLines() != 16 || s.Name() != "none" {
		t.Fatal("basic accessors wrong")
	}
	if s.Access(3) != 3 || s.BaseLine(3) != 3 {
		t.Fatal("identity mapping broken")
	}
	if s.OnWearOut(0) {
		t.Fatal("None survived a wear-out")
	}
	if s.SpareLinesTotal() != 0 || s.SpareLinesUsed() != 0 {
		t.Fatal("None reports spares")
	}
}

func TestNonePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewNone(0) },
		func() { NewNone(4).Access(4) },
		func() { NewNone(4).Access(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPSWorstReservesStrongest(t *testing.T) {
	p := testProfile()
	s := NewPS(p, 8, PSWorst, nil)
	if s.UserLines() != 32 || s.SpareLinesTotal() != 8 {
		t.Fatalf("geometry: user=%d spares=%d", s.UserLines(), s.SpareLinesTotal())
	}
	// The strongest 8 lines (35..39 region area) must be absent from the
	// user space.
	minSpare := p.KthWeakestLine(p.Lines() - 8)
	for u := 0; u < s.UserLines(); u++ {
		if p.LineEndurance(s.Access(u)) >= minSpare && p.LineEndurance(s.Access(u)) > p.KthWeakestLine(p.Lines()-9) {
			t.Fatalf("strong line %d still in user space", s.Access(u))
		}
	}
}

func TestPSBestReservesWeakest(t *testing.T) {
	p := testProfile()
	s := NewPS(p, 8, PSBest, nil)
	// The weakest 8 lines must be out of service: user minimum endurance
	// is the 9th weakest.
	want := p.KthWeakestLine(8)
	for u := 0; u < s.UserLines(); u++ {
		if p.LineEndurance(s.Access(u)) < want {
			t.Fatalf("weak line %d still in user space", s.Access(u))
		}
	}
}

func TestPSRandomDeterministicAndDisjoint(t *testing.T) {
	p := testProfile()
	a := NewPS(p, 6, PSRandom, xrand.New(42))
	b := NewPS(p, 6, PSRandom, xrand.New(42))
	for u := 0; u < a.UserLines(); u++ {
		if a.Access(u) != b.Access(u) {
			t.Fatal("PSRandom not deterministic under equal seeds")
		}
	}
	// User lines and pool must partition the device.
	seen := map[int]bool{}
	for u := 0; u < a.UserLines(); u++ {
		l := a.Access(u)
		if seen[l] {
			t.Fatalf("line %d appears twice", l)
		}
		seen[l] = true
	}
	for a.OnWearOut(0) {
		l := a.Access(0)
		if seen[l] {
			t.Fatalf("spare %d overlaps user space or reused", l)
		}
		seen[l] = true
	}
	if len(seen) != p.Lines() {
		t.Fatalf("partition covers %d of %d lines", len(seen), p.Lines())
	}
}

func TestPSExhaustion(t *testing.T) {
	p := testProfile()
	s := NewPS(p, 3, PSWorst, nil)
	for i := 0; i < 3; i++ {
		if !s.OnWearOut(i) {
			t.Fatalf("spare %d not granted", i)
		}
	}
	if s.SpareLinesUsed() != 3 {
		t.Fatalf("used = %d", s.SpareLinesUsed())
	}
	if s.OnWearOut(3) {
		t.Fatal("exhausted pool still granted a spare")
	}
}

func TestPSRebindsSlot(t *testing.T) {
	p := testProfile()
	s := NewPS(p, 2, PSWorst, nil)
	old := s.Access(5)
	base := s.BaseLine(5)
	if !s.OnWearOut(5) {
		t.Fatal("no spare granted")
	}
	if s.Access(5) == old {
		t.Fatal("slot not rebound")
	}
	if s.BaseLine(5) != base {
		t.Fatal("BaseLine changed on rebind")
	}
}

func TestPSPanics(t *testing.T) {
	p := testProfile()
	for _, f := range []func(){
		func() { NewPS(p, -1, PSWorst, nil) },
		func() { NewPS(p, p.Lines(), PSWorst, nil) },
		func() { NewPS(p, 4, PSRandom, nil) },
		func() { NewPS(p, 4, PSPolicy(99), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPCDShrinks(t *testing.T) {
	s := NewPCD(10, 7)
	if s.UserLines() != 10 || s.SpareLinesTotal() != 3 {
		t.Fatalf("geometry wrong: %d/%d", s.UserLines(), s.SpareLinesTotal())
	}
	// Kill slot 2: the last slot's line (9) moves in.
	if !s.OnWearOut(2) {
		t.Fatal("PCD failed with capacity to spare")
	}
	if s.UserLines() != 9 {
		t.Fatalf("capacity = %d after one death", s.UserLines())
	}
	if s.Access(2) != 9 {
		t.Fatalf("slot 2 now backed by %d, want 9", s.Access(2))
	}
	if !s.OnWearOut(0) || !s.OnWearOut(1) {
		t.Fatal("PCD failed early")
	}
	if s.UserLines() != 7 {
		t.Fatalf("capacity = %d", s.UserLines())
	}
	if s.OnWearOut(0) {
		t.Fatal("PCD survived below min capacity")
	}
	if s.SpareLinesUsed() != 3 {
		t.Fatalf("used = %d", s.SpareLinesUsed())
	}
}

func TestPCDLastSlotDeath(t *testing.T) {
	s := NewPCD(4, 2)
	// Killing the last slot shrinks without relocation.
	if !s.OnWearOut(3) {
		t.Fatal("failed")
	}
	if s.UserLines() != 3 {
		t.Fatal("capacity wrong")
	}
	for u := 0; u < 3; u++ {
		if s.Access(u) != u {
			t.Fatalf("slot %d remapped unexpectedly to %d", u, s.Access(u))
		}
	}
}

func TestPCDPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPCD(0, 1) },
		func() { NewPCD(5, 0) },
		func() { NewPCD(5, 6) },
		func() { NewPCD(4, 2).Access(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMaxWERegionRoles(t *testing.T) {
	p := testProfile() // 10 regions, region 0 weakest
	opts := DefaultMaxWEOptions()
	opts.SpareFraction = 0.30 // 3 spare regions
	opts.SWRFraction = 0.67   // 2 SWRs + 1 additional
	s := NewMaxWE(p, opts)
	if got := s.SWRRegionIDs(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("SWRs = %v, want [0 1]", got)
	}
	if got := s.RWRRegionIDs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("RWRs = %v, want [2 3]", got)
	}
	if got := s.AdditionalRegionIDs(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("additional = %v, want [4]", got)
	}
	// User space excludes regions 0, 1 and 4: 7 regions x 4 lines.
	if s.UserLines() != 28 {
		t.Fatalf("UserLines = %d, want 28", s.UserLines())
	}
	if s.SpareLinesTotal() != 12 {
		t.Fatalf("SpareLinesTotal = %d, want 12", s.SpareLinesTotal())
	}
}

func TestMaxWEWeakStrongMatching(t *testing.T) {
	p := testProfile()
	opts := DefaultMaxWEOptions()
	opts.SpareFraction = 0.30
	opts.SWRFraction = 0.67
	s := NewMaxWE(p, opts)
	// Weakest RWR (region 2) must be paired with the strongest SWR
	// (region 1); RWR 3 with SWR 0.
	if s.Mapping().RMT.SpareOf(2) != 1 {
		t.Fatalf("RWR 2 paired with %d, want 1", s.Mapping().RMT.SpareOf(2))
	}
	if s.Mapping().RMT.SpareOf(3) != 0 {
		t.Fatalf("RWR 3 paired with %d, want 0", s.Mapping().RMT.SpareOf(3))
	}
	// Ablation: in-order matching pairs 2-0 and 3-1.
	opts.WeakStrongMatching = false
	s2 := NewMaxWE(p, opts)
	if s2.Mapping().RMT.SpareOf(2) != 0 || s2.Mapping().RMT.SpareOf(3) != 1 {
		t.Fatal("in-order matching not honored")
	}
}

func TestMaxWERWRWearOutUsesRMT(t *testing.T) {
	p := testProfile()
	opts := DefaultMaxWEOptions()
	opts.SpareFraction = 0.30
	opts.SWRFraction = 0.67
	s := NewMaxWE(p, opts)
	// Find the slot whose base line is region 2, offset 1 (line 9).
	slot := -1
	for u := 0; u < s.UserLines(); u++ {
		if s.BaseLine(u) == 9 {
			slot = u
			break
		}
	}
	if slot < 0 {
		t.Fatal("line 9 not in user space")
	}
	if s.Access(slot) != 9 {
		t.Fatalf("fresh access = %d", s.Access(slot))
	}
	if !s.OnWearOut(slot) {
		t.Fatal("RWR wear-out not survivable")
	}
	// Region 2 pairs with SWR region 1 -> line 4+1 = 5.
	if s.Access(slot) != 5 {
		t.Fatalf("redirected access = %d, want 5", s.Access(slot))
	}
	if s.SpareLinesUsed() != 1 {
		t.Fatalf("SpareLinesUsed = %d", s.SpareLinesUsed())
	}
	// The SWR replacement dying falls back to a dynamic spare in region 4.
	if !s.OnWearOut(slot) {
		t.Fatal("SWR failure not survivable with dynamic spares left")
	}
	if got := s.Access(slot); got/4 != 4 {
		t.Fatalf("second redirect landed on line %d, want region 4", got)
	}
}

func TestMaxWEDynamicStrongestFirst(t *testing.T) {
	p := testProfile()
	opts := DefaultMaxWEOptions()
	opts.SpareFraction = 0.30
	opts.SWRFraction = 0.67
	s := NewMaxWE(p, opts)
	// Slot with base outside RWRs: take the first user slot from
	// region 5+ (not RWR 2,3).
	slot := -1
	for u := 0; u < s.UserLines(); u++ {
		if p.RegionOf(s.BaseLine(u)) >= 5 {
			slot = u
			break
		}
	}
	if !s.OnWearOut(slot) {
		t.Fatal("dynamic rescue failed")
	}
	// Strongest line of region 4 is its last line (Linear ascending):
	// line 19.
	if got := s.Access(slot); got != 19 {
		t.Fatalf("first dynamic spare = %d, want strongest (19)", got)
	}
	// Next allocation: 18.
	slot2 := slot + 1
	if !s.OnWearOut(slot2) {
		t.Fatal("second dynamic rescue failed")
	}
	if got := s.Access(slot2); got != 18 {
		t.Fatalf("second dynamic spare = %d, want 18", got)
	}
}

func TestMaxWEDynamicExhaustion(t *testing.T) {
	p := testProfile()
	opts := DefaultMaxWEOptions()
	opts.SpareFraction = 0.30
	opts.SWRFraction = 0.67
	s := NewMaxWE(p, opts)
	// 4 dynamic spare lines (region 4). Kill a non-RWR slot 5 times.
	slot := 0
	for u := 0; u < s.UserLines(); u++ {
		if p.RegionOf(s.BaseLine(u)) >= 5 {
			slot = u
			break
		}
	}
	for i := 0; i < 4; i++ {
		if !s.OnWearOut(slot) {
			t.Fatalf("rescue %d failed early", i)
		}
	}
	if s.OnWearOut(slot) {
		t.Fatal("rescue granted beyond pool size")
	}
}

func TestMaxWEZeroSpares(t *testing.T) {
	p := testProfile()
	opts := DefaultMaxWEOptions()
	opts.SpareFraction = 0
	s := NewMaxWE(p, opts)
	if s.UserLines() != p.Lines() {
		t.Fatal("zero-spare user space should cover the device")
	}
	if s.OnWearOut(0) {
		t.Fatal("zero-spare scheme survived a wear-out")
	}
}

func TestMaxWEUserSpaceExcludesSpares(t *testing.T) {
	p := endurance.DefaultModel().Sample(32, 8, xrand.New(4))
	s := NewMaxWE(p, DefaultMaxWEOptions())
	spare := map[int]bool{}
	for _, r := range s.SWRRegionIDs() {
		spare[r] = true
	}
	for _, r := range s.AdditionalRegionIDs() {
		spare[r] = true
	}
	for u := 0; u < s.UserLines(); u++ {
		if spare[p.RegionOf(s.BaseLine(u))] {
			t.Fatalf("slot %d base line in spare region", u)
		}
	}
	// Every RWR must remain in service.
	inUser := map[int]bool{}
	for u := 0; u < s.UserLines(); u++ {
		inUser[p.RegionOf(s.BaseLine(u))] = true
	}
	for _, r := range s.RWRRegionIDs() {
		if !inUser[r] {
			t.Fatalf("RWR %d missing from user space", r)
		}
	}
}

func TestMaxWERandomSpareAblation(t *testing.T) {
	p := testProfile()
	opts := DefaultMaxWEOptions()
	opts.SpareFraction = 0.30
	opts.SWRFraction = 0.67
	opts.WeakPriority = false
	opts.Rand = xrand.New(17)
	s := NewMaxWE(p, opts)
	if len(s.SWRRegionIDs()) != 2 || len(s.RWRRegionIDs()) != 2 || len(s.AdditionalRegionIDs()) != 1 {
		t.Fatal("ablated scheme geometry wrong")
	}
	// RWRs are the weakest non-spare regions.
	spare := map[int]bool{}
	for _, r := range s.SWRRegionIDs() {
		spare[r] = true
	}
	for _, r := range s.AdditionalRegionIDs() {
		spare[r] = true
	}
	weakestNonSpare := []int{}
	for _, r := range p.RegionsByMetricAsc() {
		if !spare[r] {
			weakestNonSpare = append(weakestNonSpare, r)
		}
		if len(weakestNonSpare) == 2 {
			break
		}
	}
	got := s.RWRRegionIDs()
	for i := range got {
		if got[i] != weakestNonSpare[i] {
			t.Fatalf("RWRs = %v, want %v", got, weakestNonSpare)
		}
	}
}

// The theory behind Equation 6: with weak-strong matching over a linear
// profile, every RWR/SWR pair's combined endurance is at least the
// endurance of the (2S+1)-th weakest line, so the pairs are never the
// binding constraint under uniform wear.
func TestMaxWEPairSumsDominateEq6Threshold(t *testing.T) {
	p := endurance.Linear(40, 8, 100, 5000)
	opts := DefaultMaxWEOptions()
	opts.SWRFraction = 1 // all spares region-level, matching Eq 6's model
	s := NewMaxWE(p, opts)
	swrs, rwrs := s.SWRRegionIDs(), s.RWRRegionIDs()
	if len(swrs) == 0 {
		t.Fatal("no SWRs configured")
	}
	// The (2S+1)-th weakest line, S = spare line count.
	threshold := p.KthWeakestLine(2 * len(swrs) * p.LinesPerRegion())
	for _, pra := range rwrs {
		sra := s.Mapping().RMT.SpareOf(pra)
		if sra < 0 {
			t.Fatalf("RWR %d unpaired", pra)
		}
		pairSum := p.RegionMetric(pra) + p.RegionMetric(sra)
		if pairSum < float64(threshold) {
			t.Fatalf("pair (%d,%d) sum %v below Eq-6 threshold %d",
				pra, sra, pairSum, threshold)
		}
	}
}

func TestMaxWEPanics(t *testing.T) {
	p := testProfile()
	for _, f := range []func(){
		func() {
			o := DefaultMaxWEOptions()
			o.SpareFraction = 0.6
			NewMaxWE(p, o)
		},
		func() {
			o := DefaultMaxWEOptions()
			o.SWRFraction = 1.5
			NewMaxWE(p, o)
		},
		func() {
			o := DefaultMaxWEOptions()
			o.WeakPriority = false
			o.Rand = nil
			NewMaxWE(p, o)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// BenchmarkSchemeAccess times one Access, the per-write route's lookup of
// a slot's line, on each scheme over a 256×16 linear profile.
func BenchmarkSchemeAccess(b *testing.B) {
	p := endurance.Linear(256, 16, 100, 5000)
	n := p.Lines()
	for _, c := range []struct {
		name string
		s    Scheme
	}{
		{"max-we", NewMaxWE(p, DefaultMaxWEOptions())},
		{"ps", NewPS(p, n/10, PSRandom, xrand.New(1))},
		{"pcd", NewPCD(n, n-n/10)},
		{"none", NewNone(n)},
	} {
		b.Run(c.name, func(b *testing.B) {
			users := c.s.UserLines()
			for i := 0; i < b.N; i++ {
				_ = c.s.Access(i % users)
			}
		})
	}
}
