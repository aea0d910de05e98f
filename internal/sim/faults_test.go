package sim

import (
	"reflect"
	"testing"

	"maxwe/internal/attack"
	"maxwe/internal/device"
	"maxwe/internal/endurance"
	"maxwe/internal/faultinject"
	"maxwe/internal/spare"
	"maxwe/internal/xrand"
)

func maxWEConfig(seed uint64) (Config, *endurance.Profile) {
	p := endurance.Linear(32, 8, 10, 500).Shuffled(xrand.New(seed))
	return Config{
		Profile: p,
		Scheme:  spare.NewMaxWE(p, spare.DefaultMaxWEOptions()),
		Attack:  attack.NewUAA(),
	}, p
}

func TestZeroFaultPlanIsBitIdentical(t *testing.T) {
	// A run with a disabled (all-zero) fault plan must produce the exact
	// Result of a run with no fault layer at all.
	base, _ := maxWEConfig(3)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withPlan, _ := maxWEConfig(3)
	plan, err := faultinject.NewPlan(faultinject.Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	withPlan.Faults = plan
	got, err := Run(withPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("zero fault plan changed the result:\nref %+v\ngot %+v", ref, got)
	}
	if got.Faults.Any() {
		t.Fatalf("zero fault plan injected faults: %+v", got.Faults)
	}
}

func TestFaultRunIsDeterministic(t *testing.T) {
	run := func() Result {
		cfg, _ := maxWEConfig(5)
		plan, err := faultinject.NewPlan(faultinject.Config{
			Seed: 17, TransientProb: 0.02, StuckAtProb: 0.001, MetadataProb: 0.001,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestTransientFaultsChargeRetries(t *testing.T) {
	cfg, _ := maxWEConfig(7)
	plan, err := faultinject.NewPlan(faultinject.Config{Seed: 1, TransientProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	cfg.MaxUserWrites = 20_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.TransientFaults == 0 {
		t.Fatal("10% transient probability injected nothing over 20k writes")
	}
	if res.Faults.Retries < res.Faults.TransientFaults {
		t.Fatalf("retries %d < transient faults %d", res.Faults.Retries, res.Faults.TransientFaults)
	}
	// Every retry is a real device write on top of the user write.
	if res.DeviceWrites < res.UserWrites+res.Faults.Retries {
		t.Fatalf("device writes %d do not cover %d user writes + %d retries",
			res.DeviceWrites, res.UserWrites, res.Faults.Retries)
	}
	pol := faultinject.DefaultRetryPolicy()
	if res.Faults.Retries > res.Faults.TransientFaults*int64(pol.MaxRetries) {
		t.Fatalf("retries %d exceed policy bound %d per fault",
			res.Faults.Retries, pol.MaxRetries)
	}
	if res.Faults.BackoffUnits < res.Faults.Retries {
		t.Fatalf("backoff %d < retries %d with base 1", res.Faults.BackoffUnits, res.Faults.Retries)
	}
}

func TestStuckAtKillsLinesEarly(t *testing.T) {
	cfg, p := maxWEConfig(11)
	plan, err := faultinject.NewPlan(faultinject.Config{Seed: 2, StuckAtProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	res, dev, err := RunDetailed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.StuckAtFaults == 0 {
		t.Fatal("1% stuck-at probability killed no lines")
	}
	// Stuck-at lines die with budget remaining, so the total wear spent
	// is strictly below what pure wear-out would need for this many worn
	// lines; spot-check that at least one worn line kept unspent budget.
	early := 0
	for l := 0; l < dev.Lines(); l++ {
		if dev.Worn(l) && dev.Writes(l) < p.LineEndurance(l) {
			early++
		}
	}
	if early == 0 {
		t.Fatal("no worn line retained unspent budget despite stuck-at faults")
	}
	// Early deaths consume the spare budget faster than clean wear-out:
	// the run must still fail cleanly with consistent accounting.
	if !res.Failed {
		t.Fatal("run with stuck-at faults did not fail")
	}
	if res.DeviceWrites < res.UserWrites {
		t.Fatalf("device writes %d < user writes %d", res.DeviceWrites, res.UserWrites)
	}
}

func TestMetadataFaultsDetectedAndRebuilt(t *testing.T) {
	cfg, _ := maxWEConfig(13)
	plan, err := faultinject.NewPlan(faultinject.Config{Seed: 4, MetadataProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.MetadataFaults == 0 {
		t.Fatal("1% metadata probability corrupted nothing (Max-WE boots with RMT pairs)")
	}
	if res.Faults.MetadataRepairs != res.Faults.MetadataFaults {
		t.Fatalf("repairs %d != faults %d: scrub missed corruption",
			res.Faults.MetadataRepairs, res.Faults.MetadataFaults)
	}
}

func TestMetadataFaultsIgnoredWithoutMetadata(t *testing.T) {
	// PS has no mapping tables; metadata events must be no-ops.
	p := endurance.Linear(16, 8, 10, 500).Shuffled(xrand.New(1))
	plan, err := faultinject.NewPlan(faultinject.Config{Seed: 4, MetadataProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Profile: p,
		Scheme:  spare.NewPS(p, 12, spare.PSWorst, nil),
		Attack:  attack.NewUAA(),
		Faults:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.MetadataFaults != 0 || res.Faults.MetadataRepairs != 0 {
		t.Fatalf("metadata counters %+v nonzero for a scheme without metadata", res.Faults)
	}
}

func TestEscalationPromotesToPermanentFault(t *testing.T) {
	// Demand more retries than the policy allows on every write: every
	// transient fault escalates and the device burns spares quickly.
	cfg, _ := maxWEConfig(17)
	plan, err := faultinject.NewPlan(faultinject.Config{
		Seed: 6, TransientProb: 0.05, MaxTransientRetries: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	cfg.Retry = faultinject.RetryPolicy{MaxRetries: 2, BackoffBase: 1, BackoffCap: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Escalations == 0 {
		t.Fatal("retry demands beyond the bound never escalated")
	}
	if res.Faults.Retries > res.Faults.TransientFaults*2 {
		t.Fatalf("retries %d exceed the tightened bound of 2 per fault", res.Faults.Retries)
	}
}

func TestDoneChannelInterruptsRun(t *testing.T) {
	cfg, _ := maxWEConfig(19)
	done := make(chan struct{})
	close(done)
	cfg.Done = done
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("closed Done channel did not interrupt the run")
	}
	if res.Failed {
		t.Fatal("interrupted run reported device failure")
	}
	if res.UserWrites != 0 {
		t.Fatalf("pre-closed Done served %d writes, want 0", res.UserWrites)
	}
	// A nil Done leaves the run uncancelable and uninterrupted.
	cfg.Done = nil
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || !res.Failed {
		t.Fatalf("uncancelable run: %+v", res)
	}
}

func TestStepperEnforcesMaxUserWrites(t *testing.T) {
	p := endurance.Uniform(4, 8, 1000)
	st, err := NewStepper(Config{
		Profile:       p,
		Scheme:        spare.NewNone(p.Lines()),
		MaxUserWrites: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for i := 0; i < 100; i++ {
		if st.Write(i % st.LogicalLines()) {
			served++
		}
	}
	if served != 10 {
		t.Fatalf("stepper served %d writes past a cap of 10", served)
	}
	res := st.Result()
	if res.UserWrites != 10 {
		t.Fatalf("result counts %d user writes, want 10", res.UserWrites)
	}
	if res.Failed {
		t.Fatal("capped stepper reported device failure")
	}
	if st.Failed() {
		t.Fatal("cap must not mark the device failed")
	}
}

func TestStepperWithFaultPlan(t *testing.T) {
	p := endurance.Linear(16, 8, 10, 500).Shuffled(xrand.New(2))
	plan, err := faultinject.NewPlan(faultinject.Config{Seed: 9, TransientProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(Config{
		Profile: p,
		Scheme:  spare.NewMaxWE(p, spare.DefaultMaxWEOptions()),
		Faults:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; st.Write(i % st.LogicalLines()); i++ {
	}
	res := st.Result()
	if res.Faults.TransientFaults == 0 {
		t.Fatal("stepper with fault plan injected nothing over a full lifetime")
	}
	if res.DeviceWrites < res.UserWrites+res.Faults.Retries {
		t.Fatalf("device writes %d do not cover user writes %d + retries %d",
			res.DeviceWrites, res.UserWrites, res.Faults.Retries)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	cfg, _ := maxWEConfig(1)
	plan, err := faultinject.NewPlan(faultinject.Config{Seed: 1, TransientProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	cfg.Retry = faultinject.RetryPolicy{MaxRetries: -1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid retry policy accepted")
	}
}

// TestFaultPathPCDLastSlotFold drives PCD's last slot through the fault
// path, so that the slot's line dies in the middle of a write: at a
// stuck-at attempt, a transient first attempt, a retry or an escalation.
// PCD's shrink then leaves the slot past the new space, and rebind folds
// the in-flight write onto slot 0. Only a fold writes line 0, which stays
// bound to slot 0 while every write targets the last slot, so its wear
// proves the fold ran. Two runs must agree line for line, and the
// Stepper's space must track the scheme's after every write.
func TestFaultPathPCDLastSlotFold(t *testing.T) {
	p := endurance.Linear(4, 4, 3, 12).Shuffled(xrand.New(5))
	run := func() (Result, *device.Device) {
		plan, err := faultinject.NewPlan(faultinject.Config{
			Seed: 11, TransientProb: 0.5, MaxTransientRetries: 3, StuckAtProb: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		sch := spare.NewPCD(p.Lines(), 2)
		st, err := NewStepper(Config{Profile: p, Scheme: sch, Faults: plan,
			Retry: faultinject.RetryPolicy{MaxRetries: 2, BackoffBase: 1, BackoffCap: 2}})
		if err != nil {
			t.Fatal(err)
		}
		for st.Write(st.LogicalLines() - 1) {
			if st.LogicalLines() != sch.UserLines() {
				t.Fatalf("stepper space %d != scheme space %d", st.LogicalLines(), sch.UserLines())
			}
		}
		if st.LogicalLines() != sch.UserLines() {
			t.Fatalf("stepper space %d != scheme space %d at failure", st.LogicalLines(), sch.UserLines())
		}
		checkCoreInvariants(t, "pcd faults", st.Device())
		return st.Result(), st.Device()
	}
	res, dev := run()
	again, devAgain := run()
	if res != again {
		t.Fatalf("fault runs diverged: %+v vs %+v", res, again)
	}
	for line := 0; line < p.Lines(); line++ {
		if dev.Writes(line) != devAgain.Writes(line) || dev.Worn(line) != devAgain.Worn(line) {
			t.Fatalf("line %d diverged across runs", line)
		}
	}
	if !res.Failed || res.Faults.StuckAtFaults == 0 || res.Faults.Escalations == 0 {
		t.Fatalf("scenario did not fail through stuck-at faults and escalations: %+v", res)
	}
	if dev.Writes(0) == 0 {
		t.Fatalf("no in-flight write folded onto slot 0: %+v", res)
	}
}
