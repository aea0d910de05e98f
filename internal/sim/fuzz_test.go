package sim

import (
	"fmt"
	"testing"

	"maxwe/internal/attack"
	"maxwe/internal/endurance"
	"maxwe/internal/faultinject"
	"maxwe/internal/spare"
	"maxwe/internal/xrand"
)

// FuzzStepperInvariants feeds arbitrary write streams through the full
// Max-WE stack and checks the global accounting invariants: served user
// writes never exceed device writes, the device never over-consumes its
// total budget by more than one write per line, and the run terminates
// consistently.
func FuzzStepperInvariants(f *testing.F) {
	f.Add(uint64(1), uint16(100))
	f.Add(uint64(42), uint16(5000))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		p := endurance.Linear(8, 8, 5, 250).Shuffled(xrand.New(seed))
		st, err := NewStepper(Config{
			Profile: p,
			Scheme:  spare.NewMaxWE(p, spare.DefaultMaxWEOptions()),
		})
		if err != nil {
			t.Fatal(err)
		}
		src := xrand.New(seed + 1)
		for i := 0; i < int(steps); i++ {
			if !st.Write(src.Intn(st.LogicalLines())) {
				break
			}
		}
		res := st.Result()
		if res.DeviceWrites < res.UserWrites {
			t.Fatalf("device writes %d < user writes %d", res.DeviceWrites, res.UserWrites)
		}
		if res.NormalizedLifetime < 0 || res.NormalizedLifetime > 1 {
			t.Fatalf("normalized lifetime %v out of [0, 1]", res.NormalizedLifetime)
		}
		// Worn lines can never exceed the device's line count, and spare
		// usage can never exceed the provisioned budget by construction.
		if res.WornLines > p.Lines() {
			t.Fatalf("worn lines %d > device lines %d", res.WornLines, p.Lines())
		}
		// Every device write lands on a then-unworn line, so total
		// device writes are bounded by the total budget plus one
		// wear-out transition per line.
		if float64(res.DeviceWrites) > p.Sum()+float64(p.Lines()) {
			t.Fatalf("device writes %d exceed total budget %v", res.DeviceWrites, p.Sum())
		}
	})
}

// FuzzFaultPlan runs full lifetimes under arbitrary seeded fault plans and
// checks that every plan completes or fails cleanly: no panic, device
// writes cover user traffic plus retries, retries stay within the policy
// bound, and metadata scrubbing repairs every corruption it is handed.
func FuzzFaultPlan(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(200), uint16(10), uint16(10), uint8(3))
	f.Add(uint64(7), uint64(11), uint16(1000), uint16(0), uint16(50), uint8(1))
	f.Add(uint64(3), uint64(5), uint16(0), uint16(0), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed, faultSeed uint64, transPM, stuckPM, metaPM uint16, maxRetries uint8) {
		// Per-mille rates keep the fuzzed probabilities inside [0, 1)
		// while still reaching aggressive fault densities.
		plan, err := faultinject.NewPlan(faultinject.Config{
			Seed:                faultSeed,
			TransientProb:       float64(transPM%1000) / 1000,
			StuckAtProb:         float64(stuckPM%1000) / 1000,
			MetadataProb:        float64(metaPM%1000) / 1000,
			MaxTransientRetries: int(maxRetries%16) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := endurance.Linear(8, 8, 5, 250).Shuffled(xrand.New(seed))
		res, dev, err := RunDetailed(Config{
			Profile: p,
			Scheme:  spare.NewMaxWE(p, spare.DefaultMaxWEOptions()),
			Attack:  attack.NewUAA(),
			Faults:  plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkCoreInvariants(t, "fault plan", dev)
		if !res.Failed {
			t.Fatal("uncapped run ended without device failure")
		}
		if res.DeviceWrites < res.UserWrites {
			t.Fatalf("device writes %d < user writes %d", res.DeviceWrites, res.UserWrites)
		}
		if res.DeviceWrites < res.UserWrites+res.Faults.Retries {
			t.Fatalf("device writes %d do not cover user writes %d + retries %d",
				res.DeviceWrites, res.UserWrites, res.Faults.Retries)
		}
		pol := faultinject.DefaultRetryPolicy()
		if res.Faults.Retries > res.Faults.TransientFaults*int64(pol.MaxRetries) {
			t.Fatalf("retries %d exceed %d per transient fault",
				res.Faults.Retries, pol.MaxRetries)
		}
		if res.Faults.Escalations > res.Faults.TransientFaults {
			t.Fatalf("escalations %d exceed transient faults %d",
				res.Faults.Escalations, res.Faults.TransientFaults)
		}
		if res.Faults.MetadataRepairs != res.Faults.MetadataFaults {
			t.Fatalf("metadata repairs %d != faults %d",
				res.Faults.MetadataRepairs, res.Faults.MetadataFaults)
		}
	})
}

// FuzzUnleveledMatchesPerWrite is the differential fuzz of the batched
// direct loop against the per-write route: an arbitrary attack × scheme ×
// cap without a leveler must leave the same Result and the same writes
// counter and worn flag on every line as the same config with its batch
// interface hidden (plainAttack), which runs generalEpoch through a
// Stepper. The floor argument sets the weakest line's endurance to
// 5 + floor, which spans weak profiles, whose lines wear out within the
// first epochs, and high-endurance ones: the seeds with a weakest line of
// 1025 or 1100 run whole epochs before the first wear-out. The
// first four seeds wear out the last slot of PCD's shrinking space one to
// three times each, which the Stepper must follow by refreshing its
// cached capacity.
func FuzzUnleveledMatchesPerWrite(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(7), uint16(0), uint16(0))
	f.Add(uint64(4), uint8(2), uint8(7), uint16(0), uint16(0))
	f.Add(uint64(1), uint8(6), uint8(7), uint16(1095), uint16(0))
	f.Add(uint64(8), uint8(5), uint8(7), uint16(1095), uint16(0))
	f.Add(uint64(2), uint8(4), uint8(7), uint16(0), uint16(500))
	f.Add(uint64(3), uint8(5), uint8(1), uint16(0), uint16(1025))
	f.Add(uint64(6), uint8(1), uint8(2), uint16(1095), uint16(3000))
	f.Add(uint64(5), uint8(0), uint8(1), uint16(1020), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, ak, sk uint8, floor, maxW uint16) {
		akind := crossvalAttacks[int(ak)%len(crossvalAttacks)]
		skind := allSchemeKinds[int(sk)%len(allSchemeKinds)]
		lo := 5 + float64(floor%2048)
		p := endurance.Linear(8, 8, lo, lo+245).Shuffled(xrand.New(seed))
		build := func() Config {
			cfg := buildCrossval(p, akind, skind, "", int64(maxW))
			cfg.Attack = buildAttack(akind, cfg.Scheme.UserLines(), seed+3)
			return cfg
		}
		got, gotDev, err := RunDetailed(build())
		if err != nil {
			t.Fatal(err)
		}
		perWrite := build()
		perWrite.Attack = plainAttack{inner: perWrite.Attack}
		want, wantDev, err := RunDetailed(perWrite)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/%s floor %v cap %d", akind, skind, lo, maxW)
		if got != want {
			t.Fatalf("%s: batched %+v != per-write %+v", name, got, want)
		}
		checkCoreInvariants(t, name, gotDev)
		checkCoreInvariants(t, name+" per-write", wantDev)
		for line := 0; line < p.Lines(); line++ {
			if gotDev.Writes(line) != wantDev.Writes(line) || gotDev.Worn(line) != wantDev.Worn(line) {
				t.Fatalf("%s: line %d diverged: %d/%v vs %d/%v", name, line,
					gotDev.Writes(line), gotDev.Worn(line),
					wantDev.Writes(line), wantDev.Worn(line))
			}
		}
	})
}
