package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"maxwe/internal/attack"
	"maxwe/internal/device"
	"maxwe/internal/endurance"
	"maxwe/internal/experiments"
	"maxwe/internal/memo"
	"maxwe/internal/runner"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
	"maxwe/internal/xrand"
)

// Per-layer metrics. A traced run measures each layer the workload
// exercises from the workload's own calls; a layer the workload does not
// exercise (the simulator routes fig78_bpa never takes, the service and
// cluster on the sweep workloads, the memo cache without a cache) is
// measured by a small probe of that layer, so every row is a measurement.

// routes are the simulator loops with a per-write cost row.
var routes = []string{"leveled", "uaa_uncancelable", "uaa_cancelable", "pcd_unleveled", "faults"}

// unitCosts are the per-call costs of the layers below the simulator,
// measured by timing their public functions in isolation.
type unitCosts struct {
	attackNS  map[string]float64 // per address, NextBatch
	accessNS  map[string]float64 // per Access
	wearoutUS map[string]float64 // per OnWearOut
	deviceNS  float64            // per Device.Write
	onwriteNS map[string]float64 // per Leveler.OnWrite
}

// probeUnits measures the unit costs at the workload's scale and seed.
func probeUnits(seed uint64) unitCosts {
	s := experiments.DefaultSetup()
	s.Seed = seed
	p := s.Profile()
	n := p.Lines()
	u := unitCosts{
		attackNS:  map[string]float64{},
		accessNS:  map[string]float64{},
		wearoutUS: map[string]float64{},
		onwriteNS: map[string]float64{},
	}
	const batches = 2048
	dst := make([]int, 1024)
	for _, name := range []string{"bpa", "hotcold", "random"} {
		var a attack.BatchAttack
		src := xrand.New(seed + 4)
		switch name {
		case "bpa":
			a = attack.DefaultBPA(src)
		case "hotcold":
			a = attack.NewHotCold(n, 1.1, src)
		default:
			a = attack.NewRandomUniform(src)
		}
		t0 := time.Now()
		for i := 0; i < batches; i++ {
			a.NextBatch(n, dst)
		}
		u.attackNS[name] = float64(time.Since(t0).Nanoseconds()) / float64(batches*len(dst))
	}

	// Slot sequences for the lookup, device and leveler probes.
	src := xrand.New(seed + 5)
	seq := make([]int, 1<<20)
	schemes := map[string]func() spare.Scheme{
		"max-we": func() spare.Scheme { return spare.NewMaxWE(p, spare.DefaultMaxWEOptions()) },
		"ps":     func() spare.Scheme { return spare.NewPS(p, n/10, spare.PSRandom, xrand.New(seed+6)) },
		"pcd":    func() spare.Scheme { return spare.NewPCD(n, n-n/10) },
	}
	sink := 0
	for _, name := range []string{"max-we", "ps", "pcd"} {
		sch := schemes[name]()
		users := sch.UserLines()
		for i := range seq {
			seq[i] = src.Intn(users)
		}
		t0 := time.Now()
		for _, slot := range seq {
			sink += sch.Access(slot)
		}
		u.accessNS[name] = float64(time.Since(t0).Nanoseconds()) / float64(len(seq))
	}
	for _, name := range []string{"max-we", "ps"} {
		sch := schemes[name]()
		users := sch.UserLines()
		calls := 0
		t0 := time.Now()
		for calls < 1000 {
			calls++
			if !sch.OnWearOut(src.Intn(users)) {
				break
			}
		}
		u.wearoutUS[name] = float64(time.Since(t0).Nanoseconds()) / float64(calls) / 1e3
	}

	// A profile too strong to wear out keeps Device.Write on its common
	// path.
	dev := device.New(endurance.Linear(s.Regions, s.LinesPerRegion, 1e15, 1e15))
	for i := range seq {
		seq[i] = src.Intn(n)
	}
	t0 := time.Now()
	for r := 0; r < 4; r++ {
		for _, line := range seq {
			if dev.Write(line) {
				sink++
			}
		}
	}
	u.deviceNS = float64(time.Since(t0).Nanoseconds()) / float64(4*len(seq))

	for _, wl := range experiments.WLNames() {
		sch := spare.NewMaxWE(p, spare.DefaultMaxWEOptions())
		lev := experiments.NewLeveler(wl, sch, p, s.Psi, xrand.New(seed+2))
		bpa := attack.DefaultBPA(xrand.New(seed + 3))
		logical := lev.LogicalLines()
		for i := 0; i < len(seq); i += len(dst) {
			bpa.NextBatch(logical, seq[i:i+len(dst)])
		}
		mov := &countingMover{}
		t0 := time.Now()
		for _, lla := range seq {
			lev.OnWrite(lla, mov)
		}
		u.onwriteNS[wl] = float64(time.Since(t0).Nanoseconds()) / float64(len(seq))
	}
	probeSink = sink
	return u
}

// probeSink keeps the probes' results live so no call is optimized away.
var probeSink int

// countingMover is the wearlevel.Mover of the leveler probe: it counts
// relocation writes and never fails.
type countingMover struct{ writes int64 }

func (m *countingMover) WriteSlot(int) bool {
	m.writes++
	return true
}

// put stores the unit-cost rows.
func (u unitCosts) put(m metrics) {
	for name, v := range u.attackNS {
		m.set("attack."+name+".ns_per_addr", v, "ns")
	}
	for name, v := range u.accessNS {
		m.set("spare."+name+".access_ns", v, "ns")
	}
	for name, v := range u.wearoutUS {
		m.set("spare."+name+".wearout_us", v, "us")
	}
	m.set("device.write_ns", u.deviceNS, "ns")
	for name, v := range u.onwriteNS {
		m.set("wearlevel."+name+".onwrite_ns", v, "ns")
	}
}

// costParts splits the part of a cell's time its counts times the unit
// costs explain by layer: attack generation per user write, a device
// write per device write, a replacement per worn line, a leveler step per
// user write on a leveled cell and a scheme lookup per device write on
// the routes that look up every write. The cyclic route skips whole
// periods, so no per-call model applies to it.
func (u unitCosts) costParts(c cellInfo) map[string]time.Duration {
	r := c.res
	scheme := c.scheme
	if scheme != "max-we" && scheme != "pcd" {
		scheme = "ps"
	}
	parts := map[string]float64{
		"attack": u.attackNS[c.attack] * float64(r.UserWrites),
		"device": u.deviceNS * float64(r.DeviceWrites),
		"spare":  u.wearoutUS[scheme] * 1e3 * float64(r.WornLines),
	}
	if c.wl != "" {
		parts["wearlevel"] = u.onwriteNS[c.wl] * float64(r.UserWrites)
	}
	if c.route == "pcd_unleveled" || c.route == "faults" {
		parts["spare"] += u.accessNS[scheme] * float64(r.DeviceWrites)
	}
	out := map[string]time.Duration{}
	for k, v := range parts {
		out[k] = time.Duration(v)
	}
	return out
}

// modelReport sets the cells' time against their unit-cost model, layer
// by layer, for the decomposition report.
func modelReport(cells []cellInfo, u unitCosts) []string {
	var total time.Duration
	sums := map[string]time.Duration{}
	for _, c := range cells {
		if c.route == "uaa_uncancelable" {
			continue
		}
		total += c.dur
		for k, v := range u.costParts(c) {
			sums[k] += v
		}
	}
	line := fmt.Sprintf("per-write cell time %.1f ms; unit costs x counts:", ms(total))
	var explained time.Duration
	for _, k := range []string{"attack", "wearlevel", "spare", "device"} {
		explained += sums[k]
		line += fmt.Sprintf(" %s %.1f ms (%.3f)", k, ms(sums[k]), share(sums[k], total))
	}
	return []string{line, fmt.Sprintf("  unexplained %.1f ms (%.3f; negative where the batched loops beat the per-call costs)",
		ms(total-explained), share(total-explained, total))}
}

// routeProbe runs one default-scale cell of every simulator route through
// runner.Run and returns the cells (with their Run times) and the
// runner's own overhead.
func routeProbe(seed uint64) ([]cellInfo, time.Duration, error) {
	s := experiments.DefaultSetup()
	s.Seed = seed
	p := s.Profile()
	keys, cfgs := matrixConfigs(seed)
	byKey := map[string]int{}
	for i, k := range keys {
		byKey[k] = i
	}
	leveled := bpaSpec{key: "fig7/tlsr/90", wl: "tlsr", scheme: "max-we", swrPct: 90}
	rec := newRecorder()
	log := &cellLog{}
	var root int64
	mk := func(key string) runner.Cell[sim.Result] {
		cfg := cfgs[byKey[key]]
		return timedCell(log, rec, &root, "probe", cellInfo{key: key, attack: cfg.Attack, scheme: cfg.Scheme,
			route: matrixRoute(cfg), sum: p.Sum()}, func(ctx context.Context) (sim.Result, error) {
			return runMatrixCell(ctx, cfg)
		})
	}
	cells := []runner.Cell[sim.Result]{
		timedCell(log, rec, &root, "probe", leveled.info(p), func(ctx context.Context) (sim.Result, error) {
			return leveled.run(ctx, s, p)
		}),
		timedCell(log, rec, &root, "probe", cellInfo{key: "uaa/max-we/cyclic", attack: "uaa", scheme: "max-we",
			route: "uaa_uncancelable", sum: p.Sum()}, func(context.Context) (sim.Result, error) {
			return sim.Run(sim.Config{Profile: p, Scheme: spare.NewMaxWE(p, spare.DefaultMaxWEOptions()), Attack: attack.NewUAA()})
		}),
		mk("uaa/max-we"),
		mk("bpa/pcd"),
		mk("faults/uaa/max-we"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t0 := time.Now()
	rep, err := runner.Run(ctx, runner.Config{Parallelism: 1}, cells)
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if len(rep.Failed) > 0 {
		return nil, 0, fmt.Errorf("route probe: %v", rep.Failed)
	}
	var sum time.Duration
	for _, c := range log.cells {
		sum += c.dur
	}
	return log.cells, wall - sum, nil
}

// simRows derives the sim.* timing rows from timed cells: the median cell
// time, the time per device write overall and per route, and the share
// of cell time the unit costs do not explain. Routes absent from cells
// are taken from probe.
func simRows(m metrics, cells, probe []cellInfo, u unitCosts) {
	perRoute := func(cs []cellInfo) map[string][2]float64 {
		out := map[string][2]float64{}
		for _, c := range cs {
			v := out[c.route]
			v[0] += float64(c.dur.Nanoseconds())
			v[1] += float64(c.res.DeviceWrites)
			out[c.route] = v
		}
		return out
	}
	own, fallback := perRoute(cells), perRoute(probe)
	for _, r := range routes {
		v, ok := own[r]
		if !ok {
			v = fallback[r]
		}
		m.set("sim."+r+".ns_per_write", v[0]/v[1], "ns")
	}
	var lat []float64
	var total, perWrite, modelled time.Duration
	var writes int64
	for _, c := range cells {
		lat = append(lat, ms(c.dur))
		total += c.dur
		writes += c.res.DeviceWrites
		// The cyclic route skips whole periods, so no per-call cost
		// model applies to it.
		if c.route != "uaa_uncancelable" {
			perWrite += c.dur
			for _, v := range u.costParts(c) {
				modelled += v
			}
		}
	}
	m.set("sim.cell_ms_p50", median(lat), "ms")
	m.set("sim.ns_per_device_write", float64(total.Nanoseconds())/float64(writes), "ns")
	m.set("sim.self_share", float64(perWrite-modelled)/float64(perWrite), "share")
}

// statRows stores the simulation statistics of one round's cells.
func statRows(m metrics, cells []cellInfo) {
	var user, dev, worn, reloc int64
	for _, c := range cells {
		user += c.res.UserWrites
		dev += c.res.DeviceWrites
		worn += int64(c.res.WornLines)
		if c.wl != "" {
			reloc += c.res.DeviceWrites - c.res.UserWrites
		}
	}
	m.set("sim.user_writes", float64(user), "count")
	m.set("sim.device_writes", float64(dev), "count")
	m.set("spare.wearouts", float64(worn), "count")
	m.set("wearlevel.relocation_writes", float64(reloc), "count")
}

// memoProbe measures the memo cache on values: every value is put, read
// back from memory, then read through a freshly opened cache from disk.
func memoProbe(opts options, values map[string][]byte) (metrics, error) {
	dir, err := scratchDir(opts, "memo-probe")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	c, err := memo.Open(memo.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	for k, v := range values {
		if err := c.Put(k, v); err != nil {
			return nil, err
		}
	}
	mem, err := timeGets(c, values)
	if err != nil {
		return nil, err
	}
	cold, err := memo.Open(memo.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	disk, err := timeGets(cold, values)
	if err != nil {
		return nil, err
	}
	a, b := c.Stats(), cold.Stats()
	m := metrics{}
	memoCounters(m, memo.Stats{
		Hits: a.Hits + b.Hits, MemHits: a.MemHits + b.MemHits, DiskHits: a.DiskHits + b.DiskHits,
		Misses: a.Misses + b.Misses, Puts: a.Puts + b.Puts,
		BytesRead: a.BytesRead + b.BytesRead, BytesWritten: a.BytesWritten + b.BytesWritten,
	})
	m.set("memo.mem_get_us", median(mem), "us")
	m.set("memo.disk_get_us", median(disk), "us")
	return m, nil
}

// timeGets times Cache.Get on every key, in microseconds.
func timeGets(c *memo.Cache, values map[string][]byte) ([]float64, error) {
	var out []float64
	for k := range values {
		t0 := time.Now()
		_, ok := c.Get(k)
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
		if !ok {
			return nil, fmt.Errorf("memo probe: %s missing", k)
		}
	}
	return out, nil
}

// memoCounters stores the memo counter rows.
func memoCounters(m metrics, s memo.Stats) {
	m.set("memo.hits", float64(s.Hits), "count")
	m.set("memo.mem_hits", float64(s.MemHits), "count")
	m.set("memo.disk_hits", float64(s.DiskHits), "count")
	m.set("memo.misses", float64(s.Misses), "count")
	m.set("memo.puts", float64(s.Puts), "count")
	ratio := 0.0
	if s.Hits+s.Misses > 0 {
		ratio = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	m.set("memo.hit_ratio", ratio, "ratio")
	m.set("memo.bytes_read", float64(s.BytesRead), "bytes")
	m.set("memo.bytes_written", float64(s.BytesWritten), "bytes")
}

// cellValues keys each cell's Result JSON by a probe fingerprint.
func cellValues(seed uint64, cells []cellInfo) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, c := range cells {
		raw, err := json.Marshal(c.res)
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("perfbench/%d/%s", seed, c.key)] = raw
	}
	return out, nil
}

// sweepLayers fills the per-layer rows of a sweep workload's traced run.
func sweepLayers(opts options, out *outcome, loop *roundLoop, rounds []sweepRound, profiles, builds []time.Duration) error {
	var cells []cellInfo
	var overhead []float64
	for i, r := range rounds {
		if !loop.traced[i] {
			continue
		}
		cells = append(cells, r.cells...)
		cells = append(cells, r.extra...)
		var sum time.Duration
		for _, c := range r.cells {
			sum += c.dur
		}
		overhead = append(overhead, ms(r.runnerWall-sum))
	}
	u := probeUnits(opts.seed)
	probe, _, err := routeProbe(opts.seed)
	if err != nil {
		return err
	}
	m := out.layers
	u.put(m)
	simRows(m, cells, probe, u)
	statRows(m, append(append([]cellInfo(nil), rounds[0].cells...), rounds[0].extra...))
	m.set("runner.overhead_ms", median(overhead), "ms")
	m.set("endurance.profile_ms", median(durationsMS(profiles)), "ms")
	m.set("experiments.cells_build_ms", median(durationsMS(builds)), "ms")
	loop.goDelta.put(m)

	values, err := cellValues(opts.seed, rounds[0].cells)
	if err != nil {
		return err
	}
	mm, err := memoProbe(opts, values)
	if err != nil {
		return err
	}
	for k, v := range mm {
		m[k] = v
	}
	sm, err := serviceProbe(opts)
	if err != nil {
		return err
	}
	for k, v := range sm {
		m[k] = v
	}

	spans := loop.rec.snapshot()
	traced, untraced := loop.split()
	out.report = append(decomposition(spans, loop.wallSpan, 1, traced, untraced), modelReport(cells, u)...)
	path, err := writeSpans(opts, spans)
	if err != nil {
		return err
	}
	out.report = append(out.report, "spans written to "+path)
	return nil
}
