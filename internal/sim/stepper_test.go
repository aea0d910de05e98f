package sim

import (
	"testing"

	"maxwe/internal/attack"
	"maxwe/internal/endurance"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
	"maxwe/internal/xrand"
)

// TestStepperMatchesRunUnderUAA feeds a Stepper the UAA sweep by hand
// and demands the full Result of the batched Run of the same stack. Under
// PCD the sweep follows the shrinking space through LogicalLines, which
// pins the Stepper's capacity, the length of the engine's table, against
// the batched PCD loop.
func TestStepperMatchesRunUnderUAA(t *testing.T) {
	p := endurance.Linear(16, 8, 20, 1000).Shuffled(xrand.New(1))
	schemes := map[string]func() spare.Scheme{
		"max-we": func() spare.Scheme { return spare.NewMaxWE(p, spare.DefaultMaxWEOptions()) },
		"pcd":    func() spare.Scheme { return spare.NewPCD(p.Lines(), p.Lines()-p.Lines()/10) },
	}
	for name, build := range schemes {
		ran, err := Run(Config{Profile: p, Scheme: build(), Attack: attack.NewUAA()})
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStepper(Config{Profile: p, Scheme: build()})
		if err != nil {
			t.Fatal(err)
		}
		lla := 0
		for st.Write(lla) {
			lla++
			if lla >= st.LogicalLines() {
				lla = 0
			}
		}
		stepped := st.Result()
		if stepped != ran {
			t.Fatalf("%s: stepper %+v != Run %+v", name, stepped, ran)
		}
		if !stepped.Failed || stepped.WornLines == 0 {
			t.Fatalf("%s: stepper result not a failed run with wear-outs: %+v", name, stepped)
		}
	}
}

func TestStepperRejectsAfterFailure(t *testing.T) {
	p := endurance.Uniform(1, 2, 1)
	st, err := NewStepper(Config{Profile: p, Scheme: spare.NewNone(p.Lines())})
	if err != nil {
		t.Fatal(err)
	}
	if st.Write(0) {
		t.Fatal("write at budget-1 endurance should fail the unprotected device")
	}
	if !st.Failed() {
		t.Fatal("Failed() false after failure")
	}
	if st.Write(1) {
		t.Fatal("write accepted after device failure")
	}
	// The post-failure attempt must not be counted.
	if st.Result().UserWrites != 1 {
		t.Fatalf("UserWrites = %d, want 1", st.Result().UserWrites)
	}
}

func TestStepperWithLeveler(t *testing.T) {
	p := endurance.Uniform(4, 8, 100)
	lev := wearlevel.NewStartGap(p.Lines(), 4)
	st, err := NewStepper(Config{
		Profile: p,
		Scheme:  spare.NewNone(p.Lines()),
		Leveler: lev,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.LogicalLines() != p.Lines()-1 {
		t.Fatalf("LogicalLines = %d", st.LogicalLines())
	}
	for i := 0; i < 500; i++ {
		if !st.Write(i % st.LogicalLines()) {
			break
		}
	}
	res := st.Result()
	if res.WriteAmplification <= 1 {
		t.Fatalf("amplification = %v with start-gap", res.WriteAmplification)
	}
	if st.Device().TotalWrites() != res.DeviceWrites {
		t.Fatal("Device() inconsistent with Result()")
	}
}

func TestStepperValidation(t *testing.T) {
	if _, err := NewStepper(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	p := endurance.Uniform(2, 2, 10)
	if _, err := NewStepper(Config{Profile: p, Scheme: spare.NewPCD(4, 2),
		Leveler: wearlevel.NewIdentity(4)}); err == nil {
		t.Fatal("PCD+leveler accepted")
	}
}

func TestStepperWrapsAddresses(t *testing.T) {
	p := endurance.Uniform(2, 4, 50)
	st, err := NewStepper(Config{Profile: p, Scheme: spare.NewNone(p.Lines())})
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-range logical addresses fold modulo the space instead of
	// panicking (the caller may be replaying a trace larger than the
	// device).
	if !st.Write(12345) {
		t.Fatal("folded write failed")
	}
}
