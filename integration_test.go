package maxwe_test

import (
	"fmt"
	"math"
	"testing"

	"maxwe"
)

// Integration tests: cross-module checks that the simulated stack
// reproduces the paper's closed-form model (Equations 3-8) and behaves
// consistently across its configuration space.

func integrationConfig() maxwe.Config {
	cfg := maxwe.DefaultConfig()
	cfg.Regions = 256
	cfg.LinesPerRegion = 16
	cfg.MeanEndurance = 1000
	return cfg
}

func runLifetime(t *testing.T, cfg maxwe.Config) maxwe.Result {
	t.Helper()
	sys, err := maxwe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys.RunLifetime()
}

// analyticQs and analyticSpares span the linear profiles (max/min
// endurance ratio q) and spare fractions over which the simulated UAA
// lifetimes must agree with the closed forms.
var (
	analyticQs     = []float64{10, 25, 50, 100}
	analyticSpares = []float64{0.05, 0.10, 0.20}
)

// forAnalyticGrid runs check as one subtest per (q, spare fraction) of
// the grid on the integration config with scheme set.
func forAnalyticGrid(t *testing.T, scheme string, check func(t *testing.T, cfg maxwe.Config, sim float64)) {
	for _, q := range analyticQs {
		for _, p := range analyticSpares {
			cfg := integrationConfig()
			cfg.Scheme, cfg.VariationQ, cfg.SpareFraction = scheme, q, p
			t.Run(fmt.Sprintf("q=%v/p=%v", q, p), func(t *testing.T) {
				check(t, cfg, runLifetime(t, cfg).NormalizedLifetime)
			})
		}
	}
}

// analyticOf returns the closed-form model of cfg's device.
func analyticOf(t *testing.T, cfg maxwe.Config) maxwe.AnalyticParams {
	t.Helper()
	sys, err := maxwe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Analytic()
}

// Equation 5: the unprotected UAA lifetime equals 2EL/(EH+EL), for every
// q. The "none" scheme keeps no spares, so the spare fraction does not
// enter this run and only q is swept.
func TestIntegrationEq5(t *testing.T) {
	for _, q := range analyticQs {
		cfg := integrationConfig()
		cfg.Scheme, cfg.VariationQ, cfg.SpareFraction = "none", q, 0
		res := runLifetime(t, cfg)
		want := 2.0 / (1 + q)
		if math.Abs(res.NormalizedLifetime-want) > 0.004 {
			t.Fatalf("q=%v: simulated %v vs Eq5 %v", q, res.NormalizedLifetime, want)
		}
	}
}

// Equation 8: PS-worst under UAA is governed by the (S+1)-th weakest
// line.
func TestIntegrationEq8(t *testing.T) {
	forAnalyticGrid(t, "ps-worst", func(t *testing.T, cfg maxwe.Config, sim float64) {
		want := analyticOf(t, cfg).NormalizedPSWorst()
		if math.Abs(sim-want) > 0.03 {
			t.Fatalf("simulated PS-worst %v vs Eq8 %v", sim, want)
		}
	})
}

// Equation 7: PCD under UAA matches the capacity-degradation area.
func TestIntegrationEq7(t *testing.T) {
	forAnalyticGrid(t, "pcd", func(t *testing.T, cfg maxwe.Config, sim float64) {
		want := analyticOf(t, cfg).NormalizedPCDPS()
		if math.Abs(sim-want) > 0.03 {
			t.Fatalf("simulated PCD %v vs Eq7 %v", sim, want)
		}
	})
}

// Equation 6 is a lower bound for the full Max-WE (which adds the dynamic
// pool on top of the SWR/RWR pairing the equation models).
func TestIntegrationEq6LowerBound(t *testing.T) {
	cfg := integrationConfig()
	res := runLifetime(t, cfg)
	sys, err := maxwe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bound := sys.Analytic().NormalizedMaxWE()
	if res.NormalizedLifetime < bound*0.9 {
		t.Fatalf("simulated Max-WE %v far below the Eq6 bound %v", res.NormalizedLifetime, bound)
	}
}

// Simulated lifetime under UAA is monotone (within tolerance) in the
// spare budget for every scheme.
func TestIntegrationMonotoneInSpares(t *testing.T) {
	for _, scheme := range []string{"max-we", "ps-worst", "ps-random", "pcd"} {
		prev := -1.0
		for _, pct := range []float64{0.05, 0.10, 0.20, 0.30} {
			cfg := integrationConfig()
			cfg.Scheme = scheme
			cfg.SpareFraction = pct
			got := runLifetime(t, cfg).NormalizedLifetime
			if got < prev*0.98 {
				t.Fatalf("%s: lifetime dropped from %v to %v when spares grew to %v",
					scheme, prev, got, pct)
			}
			prev = got
		}
	}
}

// Under UAA the spare-scheme ranking of Section 5.3.1 holds for every
// seed (the UAA experiments are seed-independent modulo the profile
// shuffle).
func TestIntegrationRankingStableAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 7, 20190602} {
		get := func(scheme string) float64 {
			cfg := integrationConfig()
			cfg.Scheme = scheme
			cfg.Seed = seed
			return runLifetime(t, cfg).NormalizedLifetime
		}
		mw, ps, worst := get("max-we"), get("ps-random"), get("ps-worst")
		if !(mw > ps && ps > worst) {
			t.Fatalf("seed %d: ranking broken: max-we %v, ps %v, ps-worst %v",
				seed, mw, ps, worst)
		}
	}
}

// The wear histogram accounts for every line and shows Max-WE
// concentrating wear-out (the last bucket) rather than spreading failure.
func TestIntegrationWearHistogram(t *testing.T) {
	cfg := integrationConfig()
	sys, err := maxwe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, wear := sys.RunLifetimeWithWear(10)
	if !res.Failed {
		t.Fatal("run did not complete")
	}
	total := 0
	for _, c := range wear {
		total += c
	}
	if total != cfg.Regions*cfg.LinesPerRegion {
		t.Fatalf("histogram covers %d lines, want %d", total, cfg.Regions*cfg.LinesPerRegion)
	}
	if wear[len(wear)-1] == 0 {
		t.Fatal("no worn lines in the last bucket after device failure")
	}
}

// With no endurance variation (q=1) every spare scheme approaches the
// ideal lifetime under UAA — variation is the entire problem.
func TestIntegrationNoVariationIsBenign(t *testing.T) {
	for _, scheme := range []string{"none", "max-we", "ps-random"} {
		cfg := integrationConfig()
		cfg.VariationQ = 1
		cfg.Scheme = scheme
		got := runLifetime(t, cfg).NormalizedLifetime
		// "none" reaches ~1; schemes that reserve spares give up that
		// capacity's share but never drop below 1 - spareFraction - eps.
		floor := 1 - cfg.SpareFraction - 0.05
		if got < floor {
			t.Fatalf("%s at q=1: lifetime %v below %v", scheme, got, floor)
		}
	}
}

// Extreme variation (q=1000) drives the unprotected baseline toward zero
// while Max-WE retains a usable fraction.
func TestIntegrationExtremeVariation(t *testing.T) {
	cfg := integrationConfig()
	cfg.VariationQ = 1000
	cfg.Scheme = "none"
	base := runLifetime(t, cfg).NormalizedLifetime
	if base > 0.01 {
		t.Fatalf("unprotected lifetime %v at q=1000, want < 1%%", base)
	}
	cfg.Scheme = "max-we"
	prot := runLifetime(t, cfg).NormalizedLifetime
	if prot < 20*base {
		t.Fatalf("Max-WE %v not >= 20x baseline %v at q=1000", prot, base)
	}
}

// The facade Stepper and RunLifetime agree exactly for the same
// configuration when driven with the same (sequential) addresses.
func TestIntegrationStepperMatchesRun(t *testing.T) {
	cfg := integrationConfig()
	ran := runLifetime(t, cfg)

	sys, err := maxwe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stepper()
	lla := 0
	for st.Write(lla) {
		lla = (lla + 1) % st.LogicalLines()
	}
	if got := st.Result(); got.UserWrites != ran.UserWrites {
		t.Fatalf("stepper %d writes vs run %d", got.UserWrites, ran.UserWrites)
	}
}

// The ps-best control (weakest lines reserved) isolates half of Max-WE's
// idea and must land between PS-random and full Max-WE under UAA.
func TestIntegrationPSBestBetween(t *testing.T) {
	get := func(scheme string) float64 {
		cfg := integrationConfig()
		cfg.Scheme = scheme
		return runLifetime(t, cfg).NormalizedLifetime
	}
	psRandom, psBest, mw := get("ps-random"), get("ps-best"), get("max-we")
	if !(psBest > psRandom) {
		t.Fatalf("ps-best %v not above ps-random %v", psBest, psRandom)
	}
	if !(mw > psBest*0.95) {
		t.Fatalf("max-we %v not at least ps-best %v", mw, psBest)
	}
}
