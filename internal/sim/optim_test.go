// optim_test.go holds referenceRunDetailed, an in-test per-write engine
// independent of the production write primitive, and checks the
// optimized engine against it. The optimized loops must produce
// *identical* Results — not merely close ones — on golden seeds.
package sim

import (
	"testing"

	"maxwe/internal/attack"
	"maxwe/internal/device"
	"maxwe/internal/endurance"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
	"maxwe/internal/xrand"
)

// ---------------------------------------------------------------------------
// Reference implementation (pre-optimization behavior)

// refMover is the reference's one physical write. Fault-free, it resolves
// slot u with Scheme.Access, writes through Device.Write and calls
// OnWearOut itself, sharing nothing with engine.WriteSlot; with a fault
// plan it defers to the production fault path in faulty.
type refMover struct {
	scheme spare.Scheme
	dev    *device.Device
	faulty *engine
	failed bool
}

// WriteSlot implements wearlevel.Mover.
func (m *refMover) WriteSlot(u int) bool {
	if m.faulty != nil {
		m.failed = !m.faulty.WriteSlot(u)
	} else if m.dev.Write(m.scheme.Access(u)) {
		m.failed = !m.scheme.OnWearOut(u)
	}
	return !m.failed
}

// referenceRunDetailed is the original single RunDetailed loop: every
// write, user and movement alike, routed through a refMover, and
// UserLines()/LogicalLines() re-read per iteration.
func referenceRunDetailed(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	dev := device.New(cfg.Profile)
	m := &refMover{scheme: cfg.Scheme, dev: dev}
	if cfg.Faults.Enabled() {
		m.faulty = newEngine(cfg, dev.Core())
	}
	var userWrites int64
	interrupted := false
	for {
		if cfg.MaxUserWrites > 0 && userWrites >= cfg.MaxUserWrites {
			break
		}
		if cfg.Done != nil && userWrites&1023 == 0 {
			select {
			case <-cfg.Done:
				interrupted = true
			default:
			}
			if interrupted {
				break
			}
		}
		if cfg.Leveler == nil {
			if cfg.Scheme.UserLines() == 0 {
				m.failed = true
				break
			}
			u := cfg.Attack.Next(cfg.Scheme.UserLines())
			ok := m.WriteSlot(u)
			userWrites++
			if !ok {
				break
			}
			continue
		}
		lla := cfg.Attack.Next(cfg.Leveler.LogicalLines())
		u := cfg.Leveler.Translate(lla)
		ok := m.WriteSlot(u)
		userWrites++
		if !ok {
			break
		}
		if !cfg.Leveler.OnWrite(lla, m) {
			break
		}
	}
	e := m.faulty
	if e == nil {
		e = &engine{}
	}
	e.failed = m.failed
	return buildResult(cfg, dev, userWrites, e, interrupted), nil
}

// ---------------------------------------------------------------------------
// Cross-validation

func optimProfile() *endurance.Profile {
	return endurance.DefaultModel().Sample(40, 8, xrand.New(30)).
		ScaleToMean(120).Shuffled(xrand.New(31))
}

// buildScheme covers all four spare schemes (plus Max-WE's geometry
// extremes and both deterministic PS policies).
func buildScheme(p *endurance.Profile, kind string) spare.Scheme {
	switch kind {
	case "none":
		return spare.NewNone(p.Lines())
	case "maxwe":
		return spare.NewMaxWE(p, spare.DefaultMaxWEOptions())
	case "maxwe-allswr":
		o := spare.DefaultMaxWEOptions()
		o.SWRFraction = 1
		return spare.NewMaxWE(p, o)
	case "maxwe-alldyn":
		o := spare.DefaultMaxWEOptions()
		o.SWRFraction = 0
		return spare.NewMaxWE(p, o)
	case "ps-worst":
		return spare.NewPS(p, p.Lines()/10, spare.PSWorst, nil)
	case "ps-best":
		return spare.NewPS(p, p.Lines()/10, spare.PSBest, nil)
	case "ps-random":
		return spare.NewPS(p, p.Lines()/10, spare.PSRandom, xrand.New(33))
	case "pcd":
		return spare.NewPCD(p.Lines(), p.Lines()-p.Lines()/10)
	}
	panic("unknown kind")
}

var allSchemeKinds = []string{"none", "maxwe", "maxwe-allswr", "maxwe-alldyn",
	"ps-worst", "ps-best", "ps-random", "pcd"}

func TestRunDetailedMatchesReferenceExactly(t *testing.T) {
	p := optimProfile()
	// Each case constructs fresh stateful components per run. The unleveled
	// rows exercise the batched direct loop across all four spare schemes,
	// PCD's shrinking capacity included; the leveled rows pin the batched
	// leveled loop across four levelers.
	build := func(kind, lev string, attackSeed uint64) Config {
		cfg := Config{Profile: p, Scheme: buildScheme(p, kind)}
		if attackSeed == 0 {
			cfg.Attack = attack.NewUAA()
		} else {
			cfg.Attack = attack.DefaultBPA(xrand.New(attackSeed))
		}
		n := cfg.Scheme.UserLines()
		switch lev {
		case "":
		case "identity":
			cfg.Leveler = wearlevel.NewIdentity(n)
		case "start-gap":
			cfg.Leveler = wearlevel.NewStartGap(n, 8)
		case "tlsr":
			cfg.Leveler = wearlevel.NewTLSR(n, 16, xrand.New(41))
		case "wawl":
			cfg.Leveler = wearlevel.NewWAWL(n, spare.SlotMetrics(cfg.Scheme, p), 32, xrand.New(42))
		default:
			panic("unknown leveler")
		}
		return cfg
	}
	cases := []struct {
		kind, lev  string
		attackSeed uint64
	}{
		{"none", "", 0}, {"maxwe", "", 0}, {"ps-random", "", 0}, {"pcd", "", 0},
		{"none", "identity", 0}, {"none", "start-gap", 0},
		{"maxwe", "tlsr", 51}, {"maxwe", "wawl", 52},
		{"ps-worst", "tlsr", 53}, {"ps-random", "wawl", 54},
	}
	for _, tc := range cases {
		name := tc.kind + "/" + tc.lev
		got, _, err := RunDetailed(build(tc.kind, tc.lev, tc.attackSeed))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referenceRunDetailed(build(tc.kind, tc.lev, tc.attackSeed))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: optimized %+v != reference %+v", name, got, want)
		}
	}
}

// TestPCDLastSlotWearOut pins the PCD edge of the batched loop's
// slot→line table: when the slot that wears out is the *last* slot of the
// current user space, PCD's shrink leaves u == UserLines() and no binding
// moves — the loop must draw from the shrunk table it fetches again (an
// address past it would index a slot no longer in the space). The profile below forces that edge twice in a row
// (lines 7 then 6 are the weakest, each the last slot of its round),
// follows with a genuine middle-slot relocation, and ends at the capacity
// floor.
func TestPCDLastSlotWearOut(t *testing.T) {
	lines := []int64{40, 50, 60, 70, 80, 90, 10, 5}
	p := endurance.FromLines(4, lines)
	build := func() Config {
		return Config{Profile: p, Scheme: spare.NewPCD(len(lines), 5), Attack: attack.NewUAA()}
	}
	got, _, err := RunDetailed(build())
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRunDetailed(build())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("batched %+v != reference %+v", got, want)
	}
	// The scenario actually exercised the edge: lines 7 and 6 (the two
	// last-slot deaths) plus enough further deaths to hit the floor.
	if got.WornLines < 3 || !got.Failed {
		t.Fatalf("scenario did not reach the capacity floor: %+v", got)
	}
}
