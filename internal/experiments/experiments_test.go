package experiments

import (
	"context"
	"math"
	"testing"

	"maxwe/internal/runner"
	"maxwe/internal/spare"
	"maxwe/internal/xrand"
)

// midSetup is large enough for the BPA experiments' orderings to be
// stable but still runs in well under a second per figure.
func midSetup() Setup {
	s := DefaultSetup()
	s.Regions = 256
	s.LinesPerRegion = 16
	s.MeanEndurance = 1000
	return s
}

func TestProfileLinearMatchesKnobs(t *testing.T) {
	s := QuickSetup()
	p := s.Profile()
	if p.Lines() != s.Regions*s.LinesPerRegion {
		t.Fatalf("profile has %d lines", p.Lines())
	}
	if math.Abs(p.Mean()-s.MeanEndurance)/s.MeanEndurance > 0.02 {
		t.Fatalf("profile mean = %v, want ~%v", p.Mean(), s.MeanEndurance)
	}
	if math.Abs(p.Ratio()-s.VariationQ)/s.VariationQ > 0.1 {
		t.Fatalf("profile ratio = %v, want ~%v", p.Ratio(), s.VariationQ)
	}
}

func TestProfilePowerLaw(t *testing.T) {
	s := QuickSetup()
	s.ProfileKind = ProfilePowerLaw
	p := s.Profile()
	if p.Lines() != s.Regions*s.LinesPerRegion {
		t.Fatal("power-law profile shape wrong")
	}
	if p.Ratio() > s.VariationQ*1.2 {
		t.Fatalf("power-law ratio %v exceeds the q=%v truncation", p.Ratio(), s.VariationQ)
	}
}

func TestProfilePanics(t *testing.T) {
	for _, mod := range []func(*Setup){
		func(s *Setup) { s.VariationQ = 0.5 },
		func(s *Setup) { s.ProfileKind = ProfileKind(99) },
	} {
		s := QuickSetup()
		mod(&s)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			s.Profile()
		}()
	}
}

func TestProfileDeterministic(t *testing.T) {
	s := QuickSetup()
	a, b := s.Profile(), s.Profile()
	for i := 0; i < a.Lines(); i++ {
		if a.LineEndurance(i) != b.LineEndurance(i) {
			t.Fatal("Profile not deterministic")
		}
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	s := QuickSetup()
	rows := Fig6(s, []int{0, 1, 10, 20, 30, 40, 50})
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Monotone non-decreasing in the spare percentage.
	for i := 1; i < len(rows); i++ {
		if rows[i].Normalized < rows[i-1].Normalized {
			t.Fatalf("lifetime decreased from %d%% to %d%% spares",
				rows[i-1].SparePercent, rows[i].SparePercent)
		}
	}
	// The unprotected baseline sits at the Equation 5 floor (~3.9% for
	// q=50; the paper reports 4.1%).
	if rows[0].Normalized < 0.03 || rows[0].Normalized > 0.06 {
		t.Fatalf("0%% spares lifetime = %v, want ~0.04", rows[0].Normalized)
	}
	// 10% spares lifts lifetime by several times (paper: 43.1%).
	if rows[2].Normalized < 0.25 {
		t.Fatalf("10%% spares lifetime = %v, want > 0.25", rows[2].Normalized)
	}
	// 50% spares approaches but does not exceed 1.
	if rows[6].Normalized < 0.7 || rows[6].Normalized > 1 {
		t.Fatalf("50%% spares lifetime = %v", rows[6].Normalized)
	}
}

func TestFig6PanicsOnBadPercent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fig6(QuickSetup(), []int{60})
}

func TestFig7WLOrderingAndTrend(t *testing.T) {
	s := midSetup()
	rows, rep, err := Fig7Sweep(context.Background(), runner.Config{Parallelism: 1}, s, []int{0, 90}, WLNames())
	if err != nil || len(rep.Failed) != 0 {
		t.Fatalf("sweep: %v %+v", err, rep.Failed)
	}
	byKey := map[string]map[int]float64{}
	for _, r := range rows {
		if byKey[r.WL] == nil {
			byKey[r.WL] = map[int]float64{}
		}
		byKey[r.WL][r.SWRPercent] = r.Normalized
	}
	// Paper's Figure 7 ordering at every SWR point: the endurance-aware
	// substrates beat the uniform randomizers, WAWL on top.
	for _, pct := range []int{0, 90} {
		if !(byKey["wawl"][pct] > byKey["bwl"][pct]) {
			t.Fatalf("wawl <= bwl at %d%%", pct)
		}
		if !(byKey["bwl"][pct] > byKey["tlsr"][pct]) {
			t.Fatalf("bwl <= tlsr at %d%%", pct)
		}
		if math.Abs(byKey["tlsr"][pct]-byKey["pcm-s"][pct]) > 0.08 {
			t.Fatalf("tlsr and pcm-s diverge at %d%%: %v vs %v",
				pct, byKey["tlsr"][pct], byKey["pcm-s"][pct])
		}
	}
	// All-dynamic sparing (SWR = 0%) achieves the highest lifetime, as
	// the paper reports.
	for _, wl := range WLNames() {
		if byKey[wl][0] < byKey[wl][90] {
			t.Fatalf("%s: SWR=0%% (%v) below SWR=90%% (%v)", wl, byKey[wl][0], byKey[wl][90])
		}
	}
	// WAWL at SWR=0 lands near the paper's 72.5%.
	if byKey["wawl"][0] < 0.6 || byKey["wawl"][0] > 0.85 {
		t.Fatalf("wawl@0%% = %v, want ~0.73", byKey["wawl"][0])
	}
}

func TestFig7PanicsOnBadPercent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fig7Cells(QuickSetup(), []int{101}, []string{"tlsr"})
}

func TestFig8GmeanOrdering(t *testing.T) {
	rows, gmeans, rep, err := Fig8Sweep(context.Background(), runner.Config{Parallelism: 1}, midSetup())
	if err != nil || len(rep.Failed) != 0 {
		t.Fatalf("sweep: %v %+v", err, rep.Failed)
	}
	if len(rows) != len(WLNames())*len(SchemeNames()) {
		t.Fatalf("got %d rows", len(rows))
	}
	// Paper: Max-WE > PCD/PS > PS-worst on the geometric mean.
	if !(gmeans["max-we"] > gmeans["pcd/ps"]) {
		t.Fatalf("max-we gmean %v <= pcd/ps %v", gmeans["max-we"], gmeans["pcd/ps"])
	}
	if !(gmeans["pcd/ps"] > gmeans["ps-worst"]) {
		t.Fatalf("pcd/ps gmean %v <= ps-worst %v", gmeans["pcd/ps"], gmeans["ps-worst"])
	}
	// Every normalized lifetime is a sane fraction.
	for _, r := range rows {
		if r.Normalized <= 0 || r.Normalized >= 1 {
			t.Fatalf("row %+v out of (0,1)", r)
		}
	}
}

func TestTableUAAMatchesPaperOrdering(t *testing.T) {
	rows := TableUAA(midSetup())
	byScheme := map[string]UAARow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	// Section 5.3.1 ordering: Max-WE > PCD/PS > PS-worst > none.
	if !(byScheme["max-we"].Normalized > byScheme["pcd/ps"].Normalized &&
		byScheme["pcd/ps"].Normalized > byScheme["ps-worst"].Normalized &&
		byScheme["ps-worst"].Normalized > byScheme["none"].Normalized) {
		t.Fatalf("UAA ordering wrong: %+v", rows)
	}
	// Improvement factors in the paper's ballpark (9.5X / 7.4X / 6.9X).
	if byScheme["max-we"].ImprovementX < 6 || byScheme["max-we"].ImprovementX > 13 {
		t.Fatalf("max-we improvement = %vX, want ~9.5X", byScheme["max-we"].ImprovementX)
	}
	if byScheme["none"].ImprovementX != 1 {
		t.Fatal("baseline improvement != 1")
	}
}

func TestFig2RemappingHurtsUAA(t *testing.T) {
	s := midSetup()
	s.Psi = 4 // remap often enough that swaps occur before the weak lines die
	r := Fig2(s)
	if r.PlainAmplification != 1 {
		t.Fatalf("plain amplification = %v", r.PlainAmplification)
	}
	if r.LeveledAmplification <= 1 {
		t.Fatalf("leveled amplification = %v, want > 1", r.LeveledAmplification)
	}
	if r.LeveledLifetime > r.PlainLifetime*1.05 {
		t.Fatalf("remapping helped UAA: %v vs %v", r.LeveledLifetime, r.PlainLifetime)
	}
}

func TestAblationsShowStrategyValue(t *testing.T) {
	rows := Ablations(midSetup())
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Variant] = r.Normalized
	}
	full := byName["full"]
	// Weak-priority and weak-strong matching each contribute materially
	// under UAA; strongest-first allocation is neutral there (failures
	// arrive in endurance order, so any allocation order drains the pool
	// identically).
	if !(full > byName["random-spare-regions"]*1.2) {
		t.Fatalf("weak-priority worth <20%%: full %v vs random %v",
			full, byName["random-spare-regions"])
	}
	if !(full > byName["in-order-matching"]*1.1) {
		t.Fatalf("matching worth <10%%: full %v vs in-order %v",
			full, byName["in-order-matching"])
	}
	if byName["fifo-spare-alloc"] > full*1.02 {
		t.Fatalf("fifo alloc beat strongest-first: %v vs %v",
			byName["fifo-spare-alloc"], full)
	}
}

func TestNewLevelerNames(t *testing.T) {
	s := QuickSetup()
	p := s.Profile()
	sch := spare.NewMaxWE(p, spare.DefaultMaxWEOptions())
	for _, name := range append(WLNames(), "identity", "start-gap") {
		l := NewLeveler(name, sch, p, 16, xrand.New(1))
		if l == nil {
			t.Fatalf("leveler %q nil", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown leveler name accepted")
		}
	}()
	NewLeveler("bogus", sch, p, 16, xrand.New(1))
}

func TestNewSchemePanicsOnUnknown(t *testing.T) {
	s := QuickSetup()
	p := s.Profile()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scheme accepted")
		}
	}()
	newScheme("bogus", p, 1)
}
