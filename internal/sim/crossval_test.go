// crossval_test.go cross-validates the struct-of-arrays batched loops
// (batch.go) against the pre-refactor per-write engine, kept in-test as
// referenceRunDetailed (optim_test.go), and against the per-write route
// (generalEpoch driving a Stepper). The bar
// is exact Result equality — bit-identical, not approximate — across the
// full attack × scheme × leveler matrix, MaxUserWrites truncation edges,
// cancellation, and per-line device state.
package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"maxwe/internal/attack"
	"maxwe/internal/device"
	"maxwe/internal/endurance"
	"maxwe/internal/faultinject"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
	"maxwe/internal/xrand"
)

// plainAttack hides an attack's BatchAttack extension so a config is
// forced onto the per-write route (generalEpoch) — the second way, besides
// referenceRunDetailed, to obtain per-write behavior, and the only one
// that exposes the final device for per-line comparison through the
// public API.
type plainAttack struct{ inner attack.Attack }

func (a plainAttack) Name() string   { return a.inner.Name() }
func (a plainAttack) Next(n int) int { return a.inner.Next(n) }

var crossvalAttacks = []string{
	"uaa", "partial-uaa", "bpa", "repeated", "targeted-sweep", "hotcold", "random",
}

var crossvalLevelers = []string{
	"", "identity", "start-gap", "stress-aware", "tlsr", "pcm-s", "bwl", "wawl", "twl",
}

func buildAttack(kind string, logical int, seed uint64) attack.Attack {
	switch kind {
	case "uaa":
		return attack.NewUAA()
	case "partial-uaa":
		return attack.NewPartialUAA(0.4)
	case "bpa":
		return attack.NewBPA(8, 5000, xrand.New(seed))
	case "repeated":
		return attack.NewRepeated(7)
	case "targeted-sweep":
		return attack.NewTargetedSweep([]int{1, 5, 5, 19, 400, 3})
	case "hotcold":
		return attack.NewHotCold(logical, 1.1, xrand.New(seed))
	case "random":
		return attack.NewRandomUniform(xrand.New(seed))
	}
	panic("unknown attack kind")
}

func buildLeveler(kind string, sch spare.Scheme, p *endurance.Profile, seed uint64) wearlevel.Leveler {
	n := sch.UserLines()
	metrics := func(slots int) []float64 { return spare.SlotMetrics(sch, p)[:slots] }
	switch kind {
	case "":
		return nil
	case "identity":
		return wearlevel.NewIdentity(n)
	case "start-gap":
		return wearlevel.NewStartGap(n, 8)
	case "stress-aware":
		return wearlevel.NewStressAware(n, 8)
	case "tlsr":
		return wearlevel.NewTLSR(n, 16, xrand.New(seed))
	case "pcm-s":
		return wearlevel.NewPCMS(n, 16, xrand.New(seed))
	case "bwl":
		return wearlevel.NewBWL(n, metrics(n), 16, xrand.New(seed))
	case "wawl":
		return wearlevel.NewWAWL(n, metrics(n), 16, xrand.New(seed))
	case "twl":
		even := n - n%2 // TWL bonds slot pairs; drop a trailing odd slot
		return wearlevel.NewTWL(even, metrics(even), xrand.New(seed))
	}
	panic("unknown leveler kind")
}

// buildCrossval assembles one fresh config; every call constructs new
// stateful components so a config can be built twice for the two engines.
func buildCrossval(p *endurance.Profile, ak, sk, lk string, maxWrites int64) Config {
	cfg := Config{Profile: p, Scheme: buildScheme(p, sk), MaxUserWrites: maxWrites}
	cfg.Leveler = buildLeveler(lk, cfg.Scheme, p, 61)
	logical := cfg.Scheme.UserLines()
	if cfg.Leveler != nil {
		logical = cfg.Leveler.LogicalLines()
	}
	cfg.Attack = buildAttack(ak, logical, 62)
	return cfg
}

// TestBatchedEngineFullMatrix runs every attack × scheme × leveler
// combination (PCD only unleveled, as validate requires) through the
// refactored RunDetailed and the pre-refactor reference, demanding exact
// Result equality. This is a superset of every combination optim_test.go
// exercises and covers both batched loops: runBatchedDirect (every
// unleveled row, PCD's shrinking capacity included) and runBatchedLeveled
// (every leveled row, including the SwapWL and Identity
// devirtualizations and the generic interface fallback).
func TestBatchedEngineFullMatrix(t *testing.T) {
	p := optimProfile()
	for _, ak := range crossvalAttacks {
		for _, sk := range allSchemeKinds {
			for _, lk := range crossvalLevelers {
				if sk == "pcd" && lk != "" {
					continue // PCD's shrinking capacity forbids levelers
				}
				name := ak + "/" + sk + "/" + lk
				cfg := buildCrossval(p, ak, sk, lk, 0)
				got, dev, err := RunDetailed(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkCoreInvariants(t, name, dev)
				checkBindingsUnworn(t, name, got, cfg.Scheme, dev)
				want, err := referenceRunDetailed(buildCrossval(p, ak, sk, lk, 0))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got != want {
					t.Fatalf("%s: refactored %+v != reference %+v", name, got, want)
				}
			}
		}
	}
}

// TestUnleveledCapEdges sweeps MaxUserWrites across small caps, epoch
// boundaries, and the exact failure write of every attack × scheme pair
// without a leveler: the batched direct loop's short final epoch must
// truncate at precisely the same write as the per-write reference, PCD's
// per-write draws included.
func TestUnleveledCapEdges(t *testing.T) {
	p := optimProfile()
	for _, ak := range crossvalAttacks {
		for _, sk := range allSchemeKinds {
			full, dev, err := RunDetailed(buildCrossval(p, ak, sk, "", 0))
			if err != nil {
				t.Fatal(err)
			}
			checkCoreInvariants(t, ak+"/"+sk, dev)
			caps := []int64{1, 2, 319, 320, 321, 1023, 1024, 1025,
				full.UserWrites - 1, full.UserWrites, full.UserWrites + 1}
			for _, maxW := range caps {
				if maxW <= 0 {
					continue
				}
				name := ak + "/" + sk
				cfg := buildCrossval(p, ak, sk, "", maxW)
				got, dev, err := RunDetailed(cfg)
				if err != nil {
					t.Fatalf("%s cap %d: %v", name, maxW, err)
				}
				checkCoreInvariants(t, fmt.Sprintf("%s cap %d", name, maxW), dev)
				checkBindingsUnworn(t, fmt.Sprintf("%s cap %d", name, maxW), got, cfg.Scheme, dev)
				want, err := referenceRunDetailed(buildCrossval(p, ak, sk, "", maxW))
				if err != nil {
					t.Fatalf("%s cap %d: %v", name, maxW, err)
				}
				if got != want {
					t.Fatalf("%s cap %d: refactored %+v != reference %+v", name, maxW, got, want)
				}
			}
		}
	}
}

// TestBatchedDoneSemantics pins the cancellation contract of every route:
// a Done channel closed before the run stops the engine at the first poll
// with zero writes served, and an open Done channel must not change the
// result relative to no channel at all (the polls land on the same
// 1024-write boundaries as the reference loop's).
func TestBatchedDoneSemantics(t *testing.T) {
	p := optimProfile()
	closed := make(chan struct{})
	close(closed)
	open := make(chan struct{})
	cases := []struct {
		ak, sk, lk    string
		plain, faults bool
	}{
		{ak: "uaa", sk: "maxwe"},              // batched direct
		{ak: "bpa", sk: "maxwe", lk: "tlsr"},  // batched leveled
		{ak: "random", sk: "ps-best"},         // batched direct
		{ak: "uaa", sk: "pcd"},                // batched direct, per-write draws under PCD
		{ak: "bpa", sk: "pcd"},                // batched direct
		{ak: "uaa", sk: "maxwe", plain: true}, // per-write
		{ak: "uaa", sk: "pcd", plain: true},   // per-write, shrinking space
		{ak: "uaa", sk: "maxwe", faults: true},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%s/%s plain=%v faults=%v", tc.ak, tc.sk, tc.lk, tc.plain, tc.faults)
		build := func(done <-chan struct{}) Config {
			cfg := buildCrossval(p, tc.ak, tc.sk, tc.lk, 0)
			cfg.Done = done
			if tc.plain {
				cfg.Attack = plainAttack{inner: cfg.Attack}
			}
			if tc.faults {
				plan, err := faultinject.NewPlan(faultinject.Config{
					Seed: 5, TransientProb: 0.02, StuckAtProb: 0.002, MetadataProb: 0.002,
				})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = plan
			}
			return cfg
		}
		res, dev, err := RunDetailed(build(closed))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkCoreInvariants(t, name+" closed Done", dev)
		if !res.Interrupted || res.UserWrites != 0 {
			t.Fatalf("%s: pre-closed Done served %d writes, interrupted=%v",
				name, res.UserWrites, res.Interrupted)
		}
		withOpen, dev, err := RunDetailed(build(open))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkCoreInvariants(t, name+" open Done", dev)
		noDone, _, err := RunDetailed(build(nil))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if withOpen != noDone {
			t.Fatalf("%s: open Done changed the result: %+v != %+v", name, withOpen, noDone)
		}
		if tc.faults && noDone.Faults == (faultinject.Counters{}) {
			t.Fatalf("%s: fault plan injected nothing", name)
		}
	}
}

// TestBatchedPerLineStateMatchesPerWrite compares the refactored engine
// against the per-write loop at per-line granularity: same Result AND the
// same writes counter and worn flag on every physical line. plainAttack
// strips the batch interface so the second run takes the per-write route
// through the public API, which returns its device for inspection.
func TestBatchedPerLineStateMatchesPerWrite(t *testing.T) {
	p := optimProfile()
	cases := []struct{ ak, sk, lk string }{
		{"uaa", "maxwe", ""}, {"uaa", "pcd", ""}, {"repeated", "none", ""},
		{"partial-uaa", "ps-random", ""}, {"targeted-sweep", "pcd", ""},
		{"bpa", "maxwe", "tlsr"}, {"bpa", "ps-worst", "wawl"},
		{"random", "maxwe", "identity"}, {"hotcold", "maxwe", "start-gap"},
		{"hotcold", "pcd", ""},
	}
	for _, tc := range cases {
		name := tc.ak + "/" + tc.sk + "/" + tc.lk
		gotRes, gotDev, err := RunDetailed(buildCrossval(p, tc.ak, tc.sk, tc.lk, 0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		legacy := buildCrossval(p, tc.ak, tc.sk, tc.lk, 0)
		legacy.Attack = plainAttack{inner: legacy.Attack}
		wantRes, wantDev, err := RunDetailed(legacy)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if gotRes != wantRes {
			t.Fatalf("%s: refactored %+v != legacy %+v", name, gotRes, wantRes)
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
	}
}

// FuzzEngineCrossValidation is the satellite property test: arbitrary
// (attack, scheme, leveler, fault-plan, cap) configurations must produce
// byte-identical Result JSON from the pre-refactor reference loop and the
// refactored engine. Fault plans route the refactored engine through the
// per-write route, so the fuzz also pins the Stepper's capacity cache,
// refreshed only across wear-outs, against the reference's
// re-read-every-write behavior.
func FuzzEngineCrossValidation(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(4), uint16(0), uint16(0))
	f.Add(uint64(2), uint8(2), uint8(7), uint8(0), uint16(0), uint16(900))
	f.Add(uint64(3), uint8(3), uint8(0), uint8(0), uint16(37), uint16(0))
	f.Add(uint64(4), uint8(5), uint8(1), uint8(7), uint16(0), uint16(2048))
	f.Add(uint64(5), uint8(6), uint8(4), uint8(2), uint16(403), uint16(1025))
	f.Fuzz(func(t *testing.T, seed uint64, ak, sk, lk uint8, faultPM, maxW uint16) {
		akind := crossvalAttacks[int(ak)%len(crossvalAttacks)]
		skind := allSchemeKinds[int(sk)%len(allSchemeKinds)]
		lkind := crossvalLevelers[int(lk)%len(crossvalLevelers)]
		if skind == "pcd" {
			lkind = ""
		}
		p := endurance.Linear(8, 8, 5, 250).Shuffled(xrand.New(seed))
		// Every stateful component — the fault plan's RNG included — must
		// be constructed fresh per engine run, or the first run's draws
		// would skew the second's.
		build := func() Config {
			cfg := buildCrossval(p, akind, skind, lkind, int64(maxW))
			cfg.Attack = buildAttack(akind, logicalOf(cfg), seed+3)
			if faultPM > 0 {
				plan, err := faultinject.NewPlan(faultinject.Config{
					Seed:                seed + 9,
					TransientProb:       float64(faultPM%97) / 1000,
					StuckAtProb:         float64(faultPM%53) / 5000,
					MetadataProb:        float64(faultPM%31) / 5000,
					MaxTransientRetries: int(faultPM%7) + 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = plan
			}
			return cfg
		}
		got, dev, err := RunDetailed(build())
		if err != nil {
			t.Fatal(err)
		}
		checkCoreInvariants(t, fmt.Sprintf("%s/%s/%s cap %d faults %d", akind, skind, lkind, maxW, faultPM), dev)
		want, err := referenceRunDetailed(build())
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s/%s/%s cap %d faults %d:\nrefactored %s\nreference  %s",
				akind, skind, lkind, maxW, faultPM, gotJSON, wantJSON)
		}
	})
}

// checkCoreInvariants asserts the accounting every finished run must
// leave in the device core: Total equals the sum of the per-line write
// counts (the batched loops settle Total only when they return),
// WornLines equals the number of worn flags, and every written line whose
// budget is spent is flagged worn.
func checkCoreInvariants(t *testing.T, name string, dev *device.Device) {
	t.Helper()
	c := dev.Core()
	var sum int64
	worn := 0
	for line, isWorn := range c.Worn {
		w := c.Writes(line)
		sum += w
		if isWorn {
			worn++
		} else if w > 0 && c.Left[line] <= 0 {
			t.Fatalf("%s: line %d spent its budget (%d writes) but is not worn", name, line, w)
		}
	}
	if sum != c.Total {
		t.Fatalf("%s: sum of per-line writes %d != Total %d", name, sum, c.Total)
	}
	if worn != c.WornLines {
		t.Fatalf("%s: %d lines flagged worn != WornLines %d", name, worn, c.WornLines)
	}
}

// checkBindingsUnworn asserts that a finished run leaves no user slot
// bound to a worn line, since every wear-out the scheme survives rebinds
// its slot to a fresh one. Only a failed run may leave one: the slot whose
// rescue failed.
func checkBindingsUnworn(t *testing.T, name string, res Result, sch spare.Scheme, dev *device.Device) {
	t.Helper()
	worn := 0
	for _, line := range sch.Bindings() {
		if dev.Worn(int(line)) {
			worn++
		}
	}
	if worn > 1 || worn == 1 && !res.Failed {
		t.Fatalf("%s: %d slots bound to worn lines at the end of %+v", name, worn, res)
	}
}

// logicalOf returns the logical space an attack addresses under cfg.
func logicalOf(cfg Config) int {
	if cfg.Leveler != nil {
		return cfg.Leveler.LogicalLines()
	}
	return cfg.Scheme.UserLines()
}

// ---------------------------------------------------------------------------
// Fig7-cell benchmark: the acceptance workload for the SoA refactor. It
// replicates one cell of the root BenchmarkFig7SWRPercentBPA grid (the
// 90%-SWR Max-WE × TLSR × default BPA cell at the bench scale: 256×16
// lines, mean endurance 1000, Psi 32, seeds derived from 20190602 exactly
// as experiments.Setup does) without importing internal/experiments,
// which would cycle.

func fig7CellProfile() *endurance.Profile {
	const mean, q = 1000.0, 50.0
	el := 2 * mean / (1 + q)
	return endurance.Linear(256, 16, el, el*q).ScaleToMean(mean).Shuffled(xrand.New(20190603))
}

func fig7CellConfig(p *endurance.Profile) Config {
	opts := spare.DefaultMaxWEOptions()
	opts.SWRFraction = 0.9
	sch := spare.NewMaxWE(p, opts)
	return Config{
		Profile: p,
		Scheme:  sch,
		Leveler: wearlevel.NewTLSR(sch.UserLines(), 32, xrand.New(20190604)),
		Attack:  attack.DefaultBPA(xrand.New(20190605)),
	}
}

func TestFig7CellBatchedMatchesReference(t *testing.T) {
	p := fig7CellProfile()
	got, _, err := RunDetailed(fig7CellConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRunDetailed(fig7CellConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("refactored %+v != reference %+v", got, want)
	}
}

// BenchmarkFig7CellBatched measures the refactored engine on the Fig7
// acceptance cell (routes through runBatchedLeveled with the SwapWL
// devirtualization and the scheme's slot→line table).
func BenchmarkFig7CellBatched(b *testing.B) {
	p := fig7CellProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunDetailed(fig7CellConfig(p)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7CellReference measures the pre-refactor per-write engine
// on the identical workload — the baseline the ≥5× acceptance criterion
// compares against.
func BenchmarkFig7CellReference(b *testing.B) {
	p := fig7CellProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := referenceRunDetailed(fig7CellConfig(p)); err != nil {
			b.Fatal(err)
		}
	}
}

// absorbScheme keeps every slot on its boot-time line and absorbs its
// first budget wear-outs without rebinding, so the engine goes on writing
// lines past wear-out. Its slot→line table never changes. A worn line's
// writes spend no budget, so runs over it need a MaxUserWrites cap to end.
type absorbScheme struct {
	*spare.NoneScheme
	budget int
}

func (s *absorbScheme) OnWearOut(int) bool {
	if s.budget == 0 {
		return false
	}
	s.budget--
	return true
}

// TestBatchedWritesPastWearOut pins the batched loops' handling of a line
// written again after it wore out: its budget is already spent, but the
// write is no new wear-out, so the scheme must not hear of it again. Each
// batched route must match the per-write route (where Core.Write filters
// worn lines) in Result and per-line state.
func TestBatchedWritesPastWearOut(t *testing.T) {
	p := optimProfile()
	for _, ak := range []string{"uaa", "repeated", "hotcold"} {
		for _, lk := range []string{"", "identity", "tlsr", "start-gap"} {
			build := func() Config {
				cfg := Config{Profile: p, Scheme: &absorbScheme{spare.NewNone(p.Lines()), p.Lines() / 4},
					MaxUserWrites: 2 * int64(p.Sum())}
				cfg.Leveler = buildLeveler(lk, cfg.Scheme, p, 71)
				cfg.Attack = buildAttack(ak, logicalOf(cfg), 72)
				return cfg
			}
			name := ak + "/" + lk
			gotRes, gotDev, err := RunDetailed(build())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			legacy := build()
			legacy.Attack = plainAttack{inner: legacy.Attack}
			wantRes, wantDev, err := RunDetailed(legacy)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if gotRes != wantRes {
				t.Fatalf("%s: batched %+v != per-write %+v", name, gotRes, wantRes)
			}
			checkCoreInvariants(t, name, gotDev)
			past := 0
			for line := 0; line < p.Lines(); line++ {
				if gotDev.Writes(line) > gotDev.Endurance(line) {
					past++
				}
				if gotDev.Writes(line) != wantDev.Writes(line) || gotDev.Worn(line) != wantDev.Worn(line) {
					t.Fatalf("%s: line %d diverged: %d/%v vs %d/%v", name, line,
						gotDev.Writes(line), gotDev.Worn(line), wantDev.Writes(line), wantDev.Worn(line))
				}
			}
			if past == 0 {
				t.Fatalf("%s: no line was written past wear-out: %+v", name, gotRes)
			}
		}
	}
}

// closingAttack closes done once it has emitted after addresses, so a
// run's Done poll fires at the first epoch start after that write on the
// batched and the per-write route alike.
type closingAttack struct {
	attack.BatchAttack
	done    chan struct{}
	after   int
	emitted int
}

func (a *closingAttack) count(k int) {
	if a.emitted < a.after && a.emitted+k >= a.after {
		close(a.done)
	}
	a.emitted += k
}

func (a *closingAttack) Next(n int) int {
	a.count(1)
	return a.BatchAttack.Next(n)
}

func (a *closingAttack) NextBatch(n int, dst []int) {
	a.count(len(dst))
	a.BatchAttack.NextBatch(n, dst)
}

// TestSwapCountdownSettles pins swapEpoch's lazy accounting: each logical
// address's writes reach its credit and its line's budget only at events
// and when the route returns, so every way a run can end — the cap at
// and around the remap period ψ and the epoch boundaries, Done after one
// to three epochs, and device failure — must leave the device's per-line
// Writes, Worn and Left and the leveler's perm, credit and Swaps exactly
// where the per-write route leaves them, Result included.
func TestSwapCountdownSettles(t *testing.T) {
	const psi = 16 // buildLeveler's remap period
	p := optimProfile()
	type ending struct {
		cap    int64
		epochs int
	}
	var endings []ending
	for _, c := range []int64{0, 1, psi - 1, psi, psi + 1, 1023, 1025, 3*1024 + 7} {
		endings = append(endings, ending{cap: c})
	}
	for epochs := 1; epochs <= 3; epochs++ {
		endings = append(endings, ending{epochs: epochs})
	}
	for _, lk := range []string{"tlsr", "pcm-s", "bwl", "wawl"} {
		for _, ak := range []string{"bpa", "random", "hotcold"} {
			for _, end := range endings {
				name := fmt.Sprintf("%s/%s cap=%d epochs=%d", lk, ak, end.cap, end.epochs)
				run := func(perWrite bool) (Result, *device.Device, *wearlevel.SwapWL, spare.Scheme) {
					cfg := buildCrossval(p, ak, "maxwe", lk, end.cap)
					if end.epochs > 0 {
						done := make(chan struct{})
						cfg.Done = done
						cfg.Attack = &closingAttack{BatchAttack: cfg.Attack.(attack.BatchAttack),
							done: done, after: end.epochs * epochSize}
					}
					if perWrite {
						cfg.Attack = plainAttack{inner: cfg.Attack}
					}
					res, dev, err := RunDetailed(cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return res, dev, cfg.Leveler.(*wearlevel.SwapWL), cfg.Scheme
				}
				gotRes, gotDev, gotLev, gotSch := run(false)
				wantRes, wantDev, wantLev, _ := run(true)
				if gotRes != wantRes {
					t.Fatalf("%s: batched %+v != per-write %+v", name, gotRes, wantRes)
				}
				if end.epochs > 0 && !gotRes.Failed && gotRes.UserWrites != int64(end.epochs*epochSize) {
					t.Fatalf("%s: interrupted after %d writes", name, gotRes.UserWrites)
				}
				checkCoreInvariants(t, name, gotDev)
				checkBindingsUnworn(t, name, gotRes, gotSch, gotDev)
				got, want := gotDev.Core(), wantDev.Core()
				for line := range got.Left {
					if got.Left[line] != want.Left[line] || got.Worn[line] != want.Worn[line] {
						t.Fatalf("%s: line %d diverged: Left %d/%v vs %d/%v", name, line,
							got.Left[line], got.Worn[line], want.Left[line], want.Worn[line])
					}
				}
				gotPerm, _, gotCredit := gotLev.HotState()
				wantPerm, _, wantCredit := wantLev.HotState()
				if !slices.Equal(gotPerm, wantPerm) || !slices.Equal(gotCredit, wantCredit) {
					t.Fatalf("%s: leveler diverged: perm %v/%v credit %v/%v",
						name, gotPerm, wantPerm, gotCredit, wantCredit)
				}
				if gotLev.Swaps() != wantLev.Swaps() {
					t.Fatalf("%s: swaps %d vs %d", name, gotLev.Swaps(), wantLev.Swaps())
				}
			}
		}
	}
}
