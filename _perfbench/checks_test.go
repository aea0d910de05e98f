package main

// Every output check is shown to reject a deliberately wrong result: each
// test feeds a check one corrupted input and expects exactly that check
// to fail, next to the untouched input passing.

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"maxwe/internal/cluster"
	"maxwe/internal/endurance"
	"maxwe/internal/experiments"
	"maxwe/internal/memo"
	"maxwe/internal/sim"
)

// expectFail runs fn against a fresh checker and requires at least one
// failure (want=true) or none (want=false).
func expectFail(t *testing.T, name string, want bool, fn func(*checker)) {
	t.Helper()
	chk := &checker{}
	fn(chk)
	if got := len(chk.failures) > 0; got != want {
		t.Errorf("%s: failed=%v, want %v (failures %v)", name, got, want, chk.failures)
	}
}

func TestResultPropertiesRejectWrongResults(t *testing.T) {
	const sum = 1000.0
	good := sim.Result{UserWrites: 400, DeviceWrites: 450, NormalizedLifetime: 400 / sum, Failed: true}
	expectFail(t, "good", false, func(c *checker) { checkResult(c, "good", good, sum) })
	bad := map[string]func(*sim.Result){
		"zero user writes":       func(r *sim.Result) { r.UserWrites, r.NormalizedLifetime = 0, 0 },
		"device below user":      func(r *sim.Result) { r.DeviceWrites = 399 },
		"device above endurance": func(r *sim.Result) { r.DeviceWrites = 1001 },
		"lifetime not user/sum":  func(r *sim.Result) { r.NormalizedLifetime = 0.41 },
		"not failed":             func(r *sim.Result) { r.Failed = false },
		"interrupted":            func(r *sim.Result) { r.Interrupted = true },
	}
	for name, corrupt := range bad {
		r := good
		corrupt(&r)
		expectFail(t, name, true, func(c *checker) { checkResult(c, name, r, sum) })
	}
}

func TestRepeatCheckRejectsChangedResult(t *testing.T) {
	a := sweepRound{cells: []cellInfo{{key: "k", res: sim.Result{UserWrites: 1}}}}
	b := sweepRound{cells: []cellInfo{{key: "k", res: sim.Result{UserWrites: 2}}}}
	expectFail(t, "same", false, func(c *checker) { checkRepeat(c, []sweepRound{a, a}) })
	expectFail(t, "changed", true, func(c *checker) { checkRepeat(c, []sweepRound{a, b}) })
}

func TestFig8OrderRejectsSwappedSchemes(t *testing.T) {
	nl := map[string]float64{}
	for _, wl := range experiments.WLNames() {
		nl["fig8/"+wl+"/max-we"] = 0.3
		nl["fig8/"+wl+"/pcd/ps"] = 0.2
		nl["fig8/"+wl+"/ps-worst"] = 0.1
	}
	expectFail(t, "ordered", false, func(c *checker) { checkFig8Order(c, nl) })
	nl["fig8/tlsr/max-we"] = 0.001
	expectFail(t, "max-we below pcd/ps", true, func(c *checker) { checkFig8Order(c, nl) })
}

func TestReferenceSampleRejectsMismatch(t *testing.T) {
	s := experiments.QuickSetup()
	p := s.Profile()
	spec7, spec8 := fig78Specs()
	got := map[string]sim.Result{}
	for _, b := range append(append([]bpaSpec(nil), spec7...), spec8...) {
		res, err := b.run(context.Background(), s, p)
		if err != nil {
			t.Fatal(err)
		}
		got[b.key] = res
	}
	prog7 := experiments.Fig7Cells(s, experiments.Fig7DefaultPercents(), experiments.WLNames())
	prog8 := experiments.Fig8Cells(s)
	expectFail(t, "faithful", false, func(c *checker) {
		checkReferenceSample(c, 3, s, p, spec7, spec8, got, prog7, prog8, referenceRun)
	})
	wrongRef := func(b bpaSpec, s experiments.Setup, p *endurance.Profile) (sim.Result, error) {
		r, err := referenceRun(b, s, p)
		r.DeviceWrites++
		return r, err
	}
	expectFail(t, "reference differs", true, func(c *checker) {
		checkReferenceSample(c, 3, s, p, spec7, spec8, got, prog7, prog8, wrongRef)
	})
	wrongGot := map[string]sim.Result{}
	for k, r := range got {
		r.NormalizedLifetime *= 1.01
		wrongGot[k] = r
	}
	expectFail(t, "benchmark cell differs from experiments cell", true, func(c *checker) {
		checkReferenceSample(c, 3, s, p, spec7, spec8, wrongGot, prog7, prog8, func(b bpaSpec, _ experiments.Setup, _ *endurance.Profile) (sim.Result, error) {
			return wrongGot[b.key], nil
		})
	})
}

func TestAnalyticChecksRejectOffModelLifetimes(t *testing.T) {
	const q = 50.0
	eq5 := 2 / (1 + q)
	ok := func(c *checker) { checkAnalytic(c, eq5, 0.22, 0.21, 0.37, q, 0.22, 0.21, 0.38) }
	expectFail(t, "on model", false, ok)
	expectFail(t, "none off Eq 5", true, func(c *checker) { checkAnalytic(c, eq5+0.005, 0.22, 0.21, 0.37, q, 0.22, 0.21, 0.38) })
	expectFail(t, "pcd off Eq 7", true, func(c *checker) { checkAnalytic(c, eq5, 0.26, 0.21, 0.37, q, 0.22, 0.21, 0.38) })
	expectFail(t, "ps-worst off Eq 8", true, func(c *checker) { checkAnalytic(c, eq5, 0.22, 0.17, 0.37, q, 0.22, 0.21, 0.38) })
	expectFail(t, "max-we below Eq 6", true, func(c *checker) { checkAnalytic(c, eq5, 0.22, 0.21, 0.30, q, 0.22, 0.21, 0.38) })
}

func TestOrderingChecksRejectWrongOrders(t *testing.T) {
	tab := map[string]float64{"max-we": 0.37, "pcd/ps": 0.22, "ps-worst": 0.21, "none": 0.04}
	expectFail(t, "table ordered", false, func(c *checker) { checkTableOrder(c, tab) })
	tab["none"] = 0.25
	expectFail(t, "none above ps-worst", true, func(c *checker) { checkTableOrder(c, tab) })

	rows := []experiments.Fig6Row{{SparePercent: 0, Normalized: 0.1}, {SparePercent: 1, Normalized: 0.099}, {SparePercent: 10, Normalized: 0.3}}
	expectFail(t, "fig6 within 2%", false, func(c *checker) { checkFig6Steps(c, rows) })
	rows[2].Normalized = 0.09
	expectFail(t, "fig6 drops 9%", true, func(c *checker) { checkFig6Steps(c, rows) })
}

func TestUnleveledRejectsRouteMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs default-scale UAA cells")
	}
	const seed = 5
	s := experiments.DefaultSetup()
	s.Seed = seed
	fig6 := experiments.Fig6(s, fig6Percents)
	table := experiments.TableUAA(s)
	keys, cfgs := matrixConfigs(seed)
	byKey := map[string]sim.Result{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i, k := range keys {
		if cfgs[i].Attack != "uaa" || cfgs[i].Faults.Enabled() {
			continue
		}
		res, err := runMatrixCell(ctx, cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		byKey[k] = res
	}
	expectFail(t, "routes agree", false, func(c *checker) { checkUnleveled(c, seed, fig6, table, byKey) })
	r := byKey["uaa/max-we"]
	r.NormalizedLifetime = math.Nextafter(r.NormalizedLifetime, 1) // one ulp off the table's value
	byKey["uaa/max-we"] = r
	expectFail(t, "batched route differs from cyclic", true, func(c *checker) { checkUnleveled(c, seed, fig6, table, byKey) })
}

// fakeNvmdRun builds an nvmd run of one done job per spec, with result
// bytes as the service would serve them.
func fakeNvmdRun(t *testing.T, p nvmdParams, entries []streamEntry) *nvmdRun {
	t.Helper()
	r := &nvmdRun{p: p, ex: &expectations{bySpec: map[string]*expected{}}}
	var jobs []*jobRun
	for i, e := range entries {
		ex, err := r.ex.get(e.spec)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("job-%06d", i+1)
		raw, err := ex.bytesFor(id)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, &jobRun{entry: e, id: id, result: raw, t0: time.Now(), t1: time.Now()})
	}
	r.jobs = [][]*jobRun{jobs}
	return r
}

func TestNvmdChecksRejectWrongOutputs(t *testing.T) {
	warm := streamEntry{spec: warmShapes[0].spec(11), warm: true}
	fresh := streamEntry{spec: newShapes[0].spec(12)}
	entries := []streamEntry{warm, fresh, warm}
	r := fakeNvmdRun(t, nvmdParams{memo: true}, entries)
	cells := func(e streamEntry) int64 {
		ex, err := r.ex.get(e.spec)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(ex.cells))
	}
	w, f := cells(warm), cells(fresh)
	stats := memo.Stats{Hits: 2 * w, DiskHits: w, MemHits: w, Misses: f, Puts: f}
	if err := r.check(&checker{}, stats, cluster.Stats{}); err != nil {
		t.Fatal(err)
	}
	expectFail(t, "consistent", false, func(c *checker) {
		if err := r.check(c, stats, cluster.Stats{}); err != nil {
			t.Fatal(err)
		}
	})
	wrongStats := stats
	wrongStats.DiskHits, wrongStats.MemHits = 2*w, 0
	expectFail(t, "memo counts off the stream", true, func(c *checker) {
		if err := r.check(c, wrongStats, cluster.Stats{}); err != nil {
			t.Fatal(err)
		}
	})
	r.jobs[0][1].result = append([]byte(nil), r.jobs[0][1].result...)
	r.jobs[0][1].result[len(r.jobs[0][1].result)-3] ^= 1
	expectFail(t, "result bytes differ", true, func(c *checker) {
		if err := r.check(c, stats, cluster.Stats{}); err != nil {
			t.Fatal(err)
		}
	})

	fed := fakeNvmdRun(t, nvmdParams{federated: true}, []streamEntry{fresh})
	good := cluster.Stats{Dispatched: f}
	expectFail(t, "federated clean", false, func(c *checker) {
		if err := fed.check(c, memo.Stats{}, good); err != nil {
			t.Fatal(err)
		}
	})
	bad := good
	bad.Reassigned = 1
	expectFail(t, "reassigned lease", true, func(c *checker) {
		if err := fed.check(c, memo.Stats{}, bad); err != nil {
			t.Fatal(err)
		}
	})
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
