package sim

import (
	"math"
	"testing"

	"maxwe/internal/attack"
	"maxwe/internal/endurance"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
	"maxwe/internal/xrand"
)

func TestValidation(t *testing.T) {
	p := endurance.Uniform(2, 4, 10)
	good := Config{Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA()}
	if _, err := Run(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Scheme: spare.NewNone(8), Attack: attack.NewUAA()},
		{Profile: p, Attack: attack.NewUAA()},
		{Profile: p, Scheme: spare.NewNone(8)},
		{Profile: p, Scheme: spare.NewNone(8), Attack: attack.NewUAA(), MaxUserWrites: -1},
		{Profile: p, Scheme: spare.NewPCD(8, 4), Attack: attack.NewUAA(),
			Leveler: wearlevel.NewIdentity(8)},
		{Profile: p, Scheme: spare.NewNone(8), Attack: attack.NewUAA(),
			Leveler: wearlevel.NewIdentity(9)},
	}
	for i, c := range bad {
		if _, err := Run(c); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestUAAWithoutProtectionDiesAtWeakestLine(t *testing.T) {
	// 16 lines with endurance 5..95: UAA kills the device after
	// 16 * 5 = 80 writes (Equation 4 exactly, since the weakest line is
	// line 0, written first in each round... the failing round is partial).
	p := endurance.Linear(4, 4, 5, 95)
	res, err := Run(Config{Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("device did not fail")
	}
	// The weakest line (0) dies on its 5th write, which is write 4*16+1.
	if res.UserWrites != 4*16+1 {
		t.Fatalf("UserWrites = %d, want %d", res.UserWrites, 4*16+1)
	}
	if res.WornLines != 1 {
		t.Fatalf("WornLines = %d", res.WornLines)
	}
	if math.Abs(res.WriteAmplification-1) > 1e-9 {
		t.Fatalf("amplification = %v without leveler", res.WriteAmplification)
	}
}

func TestNormalizedLifetimeMatchesEq5(t *testing.T) {
	// Linear profile with q = EH/EL: normalized UAA lifetime must be
	// close to 2EL/(EH+EL) (Equation 5). Use q=50.
	p := endurance.Linear(64, 32, 100, 5000)
	res, err := Run(Config{Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA()})
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * 100 / (5000 + 100) // 0.0392
	if math.Abs(res.NormalizedLifetime-want) > 0.002 {
		t.Fatalf("normalized lifetime = %v, want ~%v", res.NormalizedLifetime, want)
	}
}

func TestIdealDeviceReachesFullLifetime(t *testing.T) {
	// With zero variation, UAA is the ideal workload: normalized lifetime
	// approaches 1.0 under no protection (the first failure forfeits the
	// rest of the final round, bounding it at ~1 - 1/E).
	p := endurance.Uniform(8, 8, 1000)
	res, err := Run(Config{Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.NormalizedLifetime-1.0) > 0.01 {
		t.Fatalf("normalized lifetime = %v, want ~1.0", res.NormalizedLifetime)
	}
}

func TestMaxUserWritesCap(t *testing.T) {
	p := endurance.Uniform(2, 4, 1000)
	res, err := Run(Config{
		Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA(),
		MaxUserWrites: 123,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.UserWrites != 123 {
		t.Fatalf("cap not honored: failed=%v writes=%d", res.Failed, res.UserWrites)
	}
}

func TestSparesExtendLifetime(t *testing.T) {
	p := endurance.Linear(16, 8, 50, 2500).Shuffled(xrand.New(2))
	none, err := Run(Config{Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA()})
	if err != nil {
		t.Fatal(err)
	}
	maxwe, err := Run(Config{
		Profile: p,
		Scheme:  spare.NewMaxWE(p, spare.DefaultMaxWEOptions()),
		Attack:  attack.NewUAA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxwe.NormalizedLifetime <= 2*none.NormalizedLifetime {
		t.Fatalf("Max-WE %v did not clearly beat unprotected %v",
			maxwe.NormalizedLifetime, none.NormalizedLifetime)
	}
}

func TestMaxWEBeatsBaselinesUnderUAA(t *testing.T) {
	// Section 5.3.1's ordering: Max-WE > PCD/PS > PS-worst under UAA at
	// 10% spares.
	p := endurance.DefaultModel().Sample(128, 16, xrand.New(7)).
		ScaleToMean(300).Shuffled(xrand.New(8))
	spareLines := p.Lines() / 10

	mw, err := Run(Config{Profile: p,
		Scheme: spare.NewMaxWE(p, spare.DefaultMaxWEOptions()),
		Attack: attack.NewUAA()})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Run(Config{Profile: p,
		Scheme: spare.NewPS(p, spareLines, spare.PSRandom, xrand.New(9)),
		Attack: attack.NewUAA()})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := Run(Config{Profile: p,
		Scheme: spare.NewPS(p, spareLines, spare.PSWorst, nil),
		Attack: attack.NewUAA()})
	if err != nil {
		t.Fatal(err)
	}
	if !(mw.NormalizedLifetime > ps.NormalizedLifetime) {
		t.Fatalf("Max-WE %v <= PS %v", mw.NormalizedLifetime, ps.NormalizedLifetime)
	}
	if !(ps.NormalizedLifetime > worst.NormalizedLifetime) {
		t.Fatalf("PS %v <= PS-worst %v", ps.NormalizedLifetime, worst.NormalizedLifetime)
	}
}

func TestPCDUnderUAA(t *testing.T) {
	// PCD with a 10% budget must land near Equation 7's prediction for a
	// linear profile.
	p := endurance.Linear(32, 16, 100, 5000).Shuffled(xrand.New(3))
	n := p.Lines()
	res, err := Run(Config{Profile: p,
		Scheme: spare.NewPCD(n, n-n/10),
		Attack: attack.NewUAA()})
	if err != nil {
		t.Fatal(err)
	}
	// Eq 7 normalized at p=0.1, q=50 is ~0.222.
	if math.Abs(res.NormalizedLifetime-0.222) > 0.03 {
		t.Fatalf("PCD normalized lifetime = %v, want ~0.222", res.NormalizedLifetime)
	}
}

func TestLevelerAmplifiesWrites(t *testing.T) {
	p := endurance.Uniform(8, 8, 500)
	lev := wearlevel.NewTLSR(p.Lines(), 16, xrand.New(4))
	res, err := Run(Config{
		Profile:       p,
		Scheme:        spare.NewNone(p.Lines()),
		Leveler:       lev,
		Attack:        attack.NewUAA(),
		MaxUserWrites: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteAmplification <= 1.0 {
		t.Fatalf("amplification = %v, want > 1 with swaps", res.WriteAmplification)
	}
	// With psi=16, roughly one swap (2 writes) per 16 user writes:
	// amplification ≈ 1.125.
	if res.WriteAmplification > 1.3 {
		t.Fatalf("amplification = %v unreasonably high", res.WriteAmplification)
	}
}

func TestRemapAggravatesWearUnderUAA(t *testing.T) {
	// Section 3.3.1: wear leveling under UAA can only hurt. Compare
	// lifetime with and without TLSR on the same profile.
	p := endurance.Linear(16, 8, 50, 2500).Shuffled(xrand.New(5))
	plain, err := Run(Config{Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA()})
	if err != nil {
		t.Fatal(err)
	}
	leveled, err := Run(Config{
		Profile: p,
		Scheme:  spare.NewNone(p.Lines()),
		Leveler: wearlevel.NewTLSR(p.Lines(), 8, xrand.New(6)),
		Attack:  attack.NewUAA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if leveled.UserWrites > plain.UserWrites*11/10 {
		t.Fatalf("wear leveling helped UAA: %d vs %d", leveled.UserWrites, plain.UserWrites)
	}
}

func TestStartGapRuns(t *testing.T) {
	p := endurance.Uniform(4, 8, 200)
	lev := wearlevel.NewStartGap(p.Lines(), 8)
	res, err := Run(Config{
		Profile: p, Scheme: spare.NewNone(p.Lines()),
		Leveler: lev, Attack: attack.NewUAA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.UserWrites == 0 {
		t.Fatal("start-gap run did not complete")
	}
}

func TestBPAOnMaxWEWithWAWL(t *testing.T) {
	p := endurance.DefaultModel().Sample(64, 16, xrand.New(11)).
		ScaleToMean(200).Shuffled(xrand.New(12))
	scheme := spare.NewMaxWE(p, spare.DefaultMaxWEOptions())
	lev := wearlevel.NewWAWL(scheme.UserLines(), spare.SlotMetrics(scheme, p), 32, xrand.New(13))
	res, err := Run(Config{
		Profile: p, Scheme: scheme, Leveler: lev,
		Attack: attack.DefaultBPA(xrand.New(14)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("BPA run did not finish")
	}
	if res.NormalizedLifetime < 0.2 {
		t.Fatalf("WAWL+Max-WE lifetime %v suspiciously low under BPA", res.NormalizedLifetime)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		p := endurance.DefaultModel().Sample(32, 8, xrand.New(20)).ScaleToMean(150)
		scheme := spare.NewMaxWE(p, spare.DefaultMaxWEOptions())
		res, err := Run(Config{
			Profile: p, Scheme: scheme,
			Leveler: wearlevel.NewTLSR(scheme.UserLines(), 16, xrand.New(21)),
			Attack:  attack.DefaultBPA(xrand.New(22)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
}
