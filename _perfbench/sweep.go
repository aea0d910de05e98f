package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"maxwe"
	"maxwe/internal/attack"
	"maxwe/internal/endurance"
	"maxwe/internal/experiments"
	"maxwe/internal/runner"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
	"maxwe/internal/stats"
	"maxwe/internal/xrand"
)

// setupReps is how many times the sweep workloads time their set-up
// before the first round and again after every round. One set-up takes
// well under a millisecond, so a single sample is at the mercy of one
// page fault or busy neighbour; the median of some two hundred, spread
// over the whole run like the rounds, is not.
const setupReps = 21

// setupTimer times a workload's set-up: the profile, then whatever the
// rounds are built from. Each repetition starts after a garbage
// collection, as the first one does in a fresh process, so the previous
// repetition's garbage is not collected on its clock. The repetitions
// rebuild the same values from the same seed.
type setupTimer struct {
	profile func()
	build   func()
	// setups, profiles and builds are the whole set-up and its two parts.
	setups, profiles, builds []time.Duration
}

// time runs the set-up setupReps times.
func (t *setupTimer) time() {
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		t0 := time.Now()
		t.profile()
		t1 := time.Now()
		t.build()
		t2 := time.Now()
		t.setups = append(t.setups, t2.Sub(t0))
		t.profiles = append(t.profiles, t1.Sub(t0))
		t.builds = append(t.builds, t2.Sub(t1))
	}
}

// cellInfo describes one simulation of a sweep round: what it ran, how
// long its Run took and the Result it delivered.
type cellInfo struct {
	key    string
	attack string
	scheme string
	wl     string
	route  string
	dur    time.Duration
	res    sim.Result
	// sum is the profile's Σ endurance, the bound on device writes.
	sum float64
}

// cellLog collects the cells of one round. The runner may call cell Run
// functions from several workers when -parallelism > 1.
type cellLog struct {
	mu    sync.Mutex
	cells []cellInfo
}

func (l *cellLog) add(c cellInfo) {
	l.mu.Lock()
	l.cells = append(l.cells, c)
	l.mu.Unlock()
}

// timedCell wraps a simulation as a runner cell that records its Run
// duration (and, in traced rounds, a "cell" span under parent).
func timedCell(log *cellLog, rec *recorder, parent *int64, group string, info cellInfo,
	run func(ctx context.Context) (sim.Result, error)) runner.Cell[sim.Result] {
	return runner.Cell[sim.Result]{
		Key: info.key,
		Run: func(ctx context.Context) (sim.Result, error) {
			t0 := time.Now()
			res, err := run(ctx)
			t1 := time.Now()
			if err != nil {
				return res, err
			}
			rec.record(0, *parent, "cell", group, t0, t1)
			info.dur = t1.Sub(t0)
			info.res = res
			log.add(info)
			return res, nil
		},
	}
}

// plainAttack hides every method but attack.Attack's, so sim takes its
// per-write reference loop instead of a batched or cyclic engine.
type plainAttack struct{ a attack.Attack }

func (p plainAttack) Name() string   { return p.a.Name() }
func (p plainAttack) Next(n int) int { return p.a.Next(n) }

// bpaSpec is one Figure 7 or Figure 8 cell: a spare scheme under BPA on a
// wear-leveling substrate, built exactly as experiments builds it.
type bpaSpec struct {
	key    string
	wl     string
	scheme string
	swrPct int // Figure 7 only; -1 for Figure 8 cells
}

// fig78Specs lists the 24 Figure 7 and 12 Figure 8 cells in sweep order.
func fig78Specs() (fig7, fig8 []bpaSpec) {
	for _, wl := range experiments.WLNames() {
		for _, pct := range experiments.Fig7DefaultPercents() {
			fig7 = append(fig7, bpaSpec{key: fmt.Sprintf("fig7/%s/%d", wl, pct), wl: wl, scheme: "max-we", swrPct: pct})
		}
	}
	for _, wl := range experiments.WLNames() {
		for _, scheme := range experiments.SchemeNames() {
			fig8 = append(fig8, bpaSpec{key: fmt.Sprintf("fig8/%s/%s", wl, scheme), wl: wl, scheme: scheme, swrPct: -1})
		}
	}
	return fig7, fig8
}

// scheme builds the cell's spare scheme the way experiments does: Figure
// 7 varies Max-WE's SWR share, Figure 8 uses a 10% budget per scheme.
func (b bpaSpec) buildScheme(s experiments.Setup, p *endurance.Profile) spare.Scheme {
	if b.swrPct >= 0 {
		opts := spare.DefaultMaxWEOptions()
		opts.SWRFraction = float64(b.swrPct) / 100
		return spare.NewMaxWE(p, opts)
	}
	spareLines := p.Lines() / 10
	switch b.scheme {
	case "pcd/ps":
		return spare.NewPS(p, spareLines, spare.PSRandom, xrand.New(s.Seed+4))
	case "ps-worst":
		return spare.NewPS(p, spareLines, spare.PSWorst, nil)
	default:
		return spare.NewMaxWE(p, spare.DefaultMaxWEOptions())
	}
}

// config assembles the cell's simulation; reference selects the per-write
// loop by exposing the attack only as attack.Attack.
func (b bpaSpec) config(s experiments.Setup, p *endurance.Profile, done <-chan struct{}, reference bool) sim.Config {
	sch := b.buildScheme(s, p)
	var att attack.Attack = attack.DefaultBPA(xrand.New(s.Seed + 3))
	if reference {
		att = plainAttack{att}
	}
	return sim.Config{
		Profile: p,
		Scheme:  sch,
		Leveler: experiments.NewLeveler(b.wl, sch, p, s.Psi, xrand.New(s.Seed+2)),
		Attack:  att,
		Done:    done,
	}
}

// run computes the cell through sim.Run, honoring ctx like the
// experiments cells do.
func (b bpaSpec) run(ctx context.Context, s experiments.Setup, p *endurance.Profile) (sim.Result, error) {
	res, err := sim.Run(b.config(s, p, ctx.Done(), false))
	if err != nil {
		return res, err
	}
	if res.Interrupted {
		return res, ctx.Err()
	}
	return res, nil
}

func (b bpaSpec) info(p *endurance.Profile) cellInfo {
	scheme := b.scheme
	if b.swrPct >= 0 {
		scheme = "max-we"
	}
	return cellInfo{key: b.key, attack: "bpa", scheme: scheme, wl: b.wl, route: "leveled", sum: p.Sum()}
}

// roundLoop drives whole rounds until the measuring time is spent, or a
// fixed number of rounds when fixed > 0 (the layer probes). In a traced
// run every odd round records spans and runtime counters; the even rounds
// stay untraced so the report can give the tracing overhead. A fixed
// loop traces every round.
type roundLoop struct {
	opts  options
	rec   *recorder
	fixed int
	// after, when set, runs after every round, outside its time.
	after    func()
	times    []time.Duration
	traced   []bool
	goDelta  goDelta
	wallSpan time.Duration
}

// isTraced reports whether round i records spans.
func (l *roundLoop) isTraced(i int) bool {
	return l.fixed > 0 || (l.opts.trace && i%2 == 1)
}

func (l *roundLoop) run(round func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if l.fixed > 0 && i == l.fixed {
			break
		}
		if l.fixed == 0 && i > 0 && time.Since(start).Seconds() >= l.opts.seconds && (!l.opts.trace || i >= 2) {
			break
		}
		traced := l.isTraced(i)
		l.rec.setOn(traced)
		var before goStats
		if traced {
			before = readGoStats()
		}
		t0 := time.Now()
		err := round(i)
		d := time.Since(t0)
		if traced {
			l.goDelta.add(before, readGoStats())
			l.wallSpan += d
		}
		l.rec.setOn(false)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		l.times = append(l.times, d)
		l.traced = append(l.traced, traced)
		if l.after != nil {
			l.after()
		}
	}
	return nil
}

// split separates traced and untraced round times.
func (l *roundLoop) split() (traced, untraced []time.Duration) {
	for i, d := range l.times {
		if l.traced[i] {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
	}
	return traced, untraced
}

// sweepRound is what one sweep round produced.
type sweepRound struct {
	dur   time.Duration
	cells []cellInfo // runner cells, in completion order
	extra []cellInfo // simulations outside the runner (Fig 6, Table UAA)
	// runnerWall is the wall time of the runner.Run calls alone.
	runnerWall time.Duration
}

// ops is the number of simulations the round delivered.
func (r sweepRound) ops() int { return len(r.cells) + len(r.extra) }

func (r sweepRound) deviceWrites() int64 {
	var n int64
	for _, c := range r.cells {
		n += c.res.DeviceWrites
	}
	for _, c := range r.extra {
		n += c.res.DeviceWrites
	}
	return n
}

// sweepMetrics derives the end-to-end metrics shared by both sweep
// workloads. Every round runs the same simulations. The host's CPUs are
// shared, and a neighbour makes single cells take up to twice as long,
// so each time is the median of its samples over the whole run: sweep_s
// the median round, setup_s the median set-up.
func sweepMetrics(m metrics, setups []time.Duration, rounds []sweepRound, rss float64) {
	secs := make([]float64, len(rounds))
	for i, r := range rounds {
		secs[i] = r.dur.Seconds()
	}
	s := median(secs)
	m.set("setup_s", median(durationsMS(setups))/1000, "s")
	m.set("sweep_s", s, "s")
	m.set("cells_per_s", float64(rounds[0].ops())/s, "1/s")
	m.set("sim_writes_per_s", float64(rounds[0].deviceWrites())/s, "1/s")
	m.set("peak_rss_mb", rss, "MB")
}

// checkResult applies the properties every lifetime Result must have.
func checkResult(chk *checker, where string, res sim.Result, sum float64) {
	chk.check(resultOK(res, sum), "%s: Result %+v violates 0 < UserWrites <= DeviceWrites <= sum endurance %.0f, NormalizedLifetime = UserWrites/sum, Failed && !Interrupted", where, res, sum)
}

// resultOK reports whether res satisfies the Result properties.
func resultOK(res sim.Result, sum float64) bool {
	return res.UserWrites > 0 &&
		res.UserWrites <= res.DeviceWrites &&
		float64(res.DeviceWrites) <= sum &&
		res.NormalizedLifetime == float64(res.UserWrites)/sum &&
		res.Failed && !res.Interrupted
}

// checkRepeat checks that every round delivered the same Results as the
// first: the simulations are deterministic in their configuration.
func checkRepeat(chk *checker, rounds []sweepRound) {
	first := map[string]sim.Result{}
	for _, c := range rounds[0].cells {
		first[c.key] = c.res
	}
	same := true
	for _, r := range rounds[1:] {
		for _, c := range r.cells {
			if first[c.key] != c.res {
				same = false
			}
		}
	}
	chk.check(same, "rounds delivered different Results for the same cells")
}

// ---------------------------------------------------------------------------
// fig78_bpa

// runFig78 runs the Figure 7 and Figure 8 BPA sweeps at the default scale
// through runner.Run, sequentially, with no cache and no checkpoint.
func runFig78(opts options, chk *checker) (*outcome, error) {
	s := experiments.DefaultSetup()
	s.Seed = opts.seed
	spec7, spec8 := fig78Specs()

	var p *endurance.Profile
	var prog7 []runner.Cell[experiments.Fig7Row]
	var prog8 []runner.Cell[experiments.Fig8Row]
	st := &setupTimer{
		profile: func() { p = s.Profile() },
		build: func() {
			prog7 = experiments.Fig7Cells(s, experiments.Fig7DefaultPercents(), experiments.WLNames())
			prog8 = experiments.Fig8Cells(s)
		},
	}
	st.time()

	rec := newRecorder()
	loop := &roundLoop{opts: opts, rec: rec, after: st.time}
	var rounds []sweepRound
	// Peak RSS is read after the first round: later rounds repeat the
	// same work, and reading at a fixed point keeps the figure from
	// depending on how many rounds the run fits in.
	var rss float64
	err := loop.run(func(i int) error {
		log := &cellLog{}
		group := fmt.Sprintf("round-%d", i)
		root := rec.newID()
		mk := func(specs []bpaSpec) []runner.Cell[sim.Result] {
			cells := make([]runner.Cell[sim.Result], len(specs))
			for j, b := range specs {
				b := b
				cells[j] = timedCell(log, rec, &root, group, b.info(p), func(ctx context.Context) (sim.Result, error) {
					return b.run(ctx, s, p)
				})
			}
			return cells
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := runner.Config{Parallelism: opts.parallelism}
		t0 := time.Now()
		rep7, err := runner.Run(ctx, cfg, mk(spec7))
		if err != nil {
			return err
		}
		rep8, err := runner.Run(ctx, cfg, mk(spec8))
		if err != nil {
			return err
		}
		t1 := time.Now()
		rec.record(root, 0, "sweep", group, t0, t1)
		if n := len(rep7.Failed) + len(rep8.Failed); n > 0 {
			return fmt.Errorf("%d cells failed: %v %v", n, rep7.Failed, rep8.Failed)
		}
		rounds = append(rounds, sweepRound{dur: t1.Sub(t0), cells: log.cells, runnerWall: t1.Sub(t0)})
		if i == 0 {
			rss = peakRSSMB()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rounds {
		rounds[i].dur = loop.times[i]
	}

	// Output checks.
	for _, c := range rounds[0].cells {
		checkResult(chk, c.key, c.res, c.sum)
	}
	checkRepeat(chk, rounds)
	got := map[string]sim.Result{}
	nl := map[string]float64{}
	for _, c := range rounds[0].cells {
		got[c.key] = c.res
		nl[c.key] = c.res.NormalizedLifetime
	}
	checkFig8Order(chk, nl)
	checkReferenceSample(chk, opts.seed, s, p, spec7, spec8, got, prog7, prog8, referenceRun)

	out := &outcome{e2e: metrics{}, layers: metrics{}}
	for _, r := range rounds {
		out.attempted += int64(len(spec7) + len(spec8))
		out.failed += int64(len(spec7) + len(spec8) - r.ops())
	}
	sweepMetrics(out.e2e, st.setups, rounds, rss)
	if opts.trace {
		if err := sweepLayers(opts, out, loop, rounds, st.profiles, st.builds); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkFig8Order checks the Figure 8 geometric-mean ordering
// Max-WE > PCD/PS > PS-worst.
func checkFig8Order(chk *checker, nl map[string]float64) {
	g := fig8Gmeans(nl)
	chk.check(g["max-we"] > g["pcd/ps"] && g["pcd/ps"] > g["ps-worst"],
		"Fig 8 gmeans %v not ordered max-we > pcd/ps > ps-worst", g)
}

// fig8Gmeans computes the per-scheme geometric means of the Figure 8
// cells from their normalized lifetimes.
func fig8Gmeans(nl map[string]float64) map[string]float64 {
	per := map[string][]float64{}
	for _, wl := range experiments.WLNames() {
		for _, scheme := range experiments.SchemeNames() {
			per[scheme] = append(per[scheme], nl[fmt.Sprintf("fig8/%s/%s", wl, scheme)])
		}
	}
	g := map[string]float64{}
	for scheme, vals := range per {
		g[scheme] = stats.GeoMean(vals)
	}
	return g
}

// referenceRun runs a BPA cell on the per-write reference loop.
func referenceRun(b bpaSpec, s experiments.Setup, p *endurance.Profile) (sim.Result, error) {
	return sim.Run(b.config(s, p, nil, true))
}

// checkReferenceSample re-runs one seeded Figure 7 cell and one seeded
// Figure 8 cell through ref (the per-write reference loop) and checks the
// Results match the batched engine bit for bit; it also runs the same
// cells as experiments builds them and checks the normalized lifetimes
// match.
func checkReferenceSample(chk *checker, seed uint64, s experiments.Setup, p *endurance.Profile,
	spec7, spec8 []bpaSpec, got map[string]sim.Result,
	prog7 []runner.Cell[experiments.Fig7Row], prog8 []runner.Cell[experiments.Fig8Row],
	ref func(bpaSpec, experiments.Setup, *endurance.Profile) (sim.Result, error)) {
	src := xrand.New(seed ^ 0x5eed)
	i7, i8 := src.Intn(len(spec7)), src.Intn(len(spec8))
	ctx := context.Background()
	for _, b := range []bpaSpec{spec7[i7], spec8[i8]} {
		want, err := ref(b, s, p)
		chk.check(err == nil && want == got[b.key], "%s: reference loop %+v (err %v) differs from batched %+v", b.key, want, err, got[b.key])
	}
	row7, err7 := prog7[i7].Run(ctx)
	chk.check(err7 == nil && row7.Normalized == got[spec7[i7].key].NormalizedLifetime,
		"%s: experiments cell gives %v (err %v), benchmark cell %v", spec7[i7].key, row7.Normalized, err7, got[spec7[i7].key].NormalizedLifetime)
	row8, err8 := prog8[i8].Run(ctx)
	chk.check(err8 == nil && row8.Normalized == got[spec8[i8].key].NormalizedLifetime,
		"%s: experiments cell gives %v (err %v), benchmark cell %v", spec8[i8].key, row8.Normalized, err8, got[spec8[i8].key].NormalizedLifetime)
}

// ---------------------------------------------------------------------------
// unleveled

// matrixAttacks and matrixSchemes span the unleveled runner-cell matrix.
var (
	matrixAttacks = []string{"uaa", "partial-uaa", "bpa", "random", "hotcold", "repeated"}
	matrixSchemes = []string{"max-we", "pcd", "ps-worst", "ps-random"}
	fig6Percents  = []int{0, 1, 10, 20, 30, 40, 50}
)

// matrixConfigs lists the unleveled runner cells: every attack against
// every scheme at the default scale, plus two fault-injected cells.
func matrixConfigs(seed uint64) (keys []string, cfgs []maxwe.Config) {
	for _, a := range matrixAttacks {
		for _, sc := range matrixSchemes {
			cfg := maxwe.DefaultConfig()
			cfg.Attack, cfg.Scheme, cfg.Seed = a, sc, seed
			keys = append(keys, a+"/"+sc)
			cfgs = append(cfgs, cfg)
		}
	}
	f1 := maxwe.DefaultConfig()
	f1.Seed = seed
	f1.Faults = maxwe.FaultConfig{Seed: seed, TransientProb: 0.01, StuckAtProb: 0.0005, MetadataProb: 0.0005}
	f2 := maxwe.DefaultConfig()
	f2.Attack, f2.Scheme, f2.Seed = "bpa", "ps-random", seed
	f2.Faults = maxwe.FaultConfig{Seed: seed + 1, StuckAtProb: 0.001}
	keys = append(keys, "faults/uaa/max-we", "faults/bpa/ps-random")
	cfgs = append(cfgs, f1, f2)
	return keys, cfgs
}

// matrixRoute names the sim loop a matrix cell takes when run with a
// cancelable context.
func matrixRoute(cfg maxwe.Config) string {
	switch {
	case cfg.Faults.Enabled():
		return "faults"
	case cfg.Scheme == "pcd":
		return "pcd_unleveled"
	case cfg.Attack == "uaa":
		return "uaa_cancelable"
	}
	return "batched"
}

// runMatrixCell builds and runs one maxwe System under the runner's
// (cancelable) context.
func runMatrixCell(ctx context.Context, cfg maxwe.Config) (sim.Result, error) {
	sys, err := maxwe.New(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	res := sys.RunLifetimeCtx(ctx)
	if res.Interrupted {
		return res, ctx.Err()
	}
	return res, nil
}

// runUnleveled runs Figure 6 and the UAA table (uncancelable sim.Run: the
// cyclic fast-forward) and the unleveled attack × scheme matrix through
// the runner (cancelable: batched and per-write loops).
func runUnleveled(opts options, chk *checker) (*outcome, error) {
	s := experiments.DefaultSetup()
	s.Seed = opts.seed
	var p *endurance.Profile
	var keys []string
	var cfgs []maxwe.Config
	st := &setupTimer{
		profile: func() { p = s.Profile() },
		build:   func() { keys, cfgs = matrixConfigs(opts.seed) },
	}
	st.time()
	sum := p.Sum()
	writesOf := func(nl float64) int64 { return int64(math.Round(nl * sum)) }

	rec := newRecorder()
	loop := &roundLoop{opts: opts, rec: rec, after: st.time}
	var rounds []sweepRound
	var fig6 []experiments.Fig6Row
	var table []experiments.UAARow
	var rss float64
	err := loop.run(func(i int) error {
		log := &cellLog{}
		group := fmt.Sprintf("round-%d", i)
		root := rec.newID()
		var extra []cellInfo
		t0 := time.Now()
		fig6 = experiments.Fig6(s, fig6Percents)
		t1 := time.Now()
		table = experiments.TableUAA(s)
		t2 := time.Now()
		rec.record(0, root, "fig6", group, t0, t1)
		rec.record(0, root, "table_uaa", group, t1, t2)
		for _, r := range fig6 {
			w := writesOf(r.Normalized)
			extra = append(extra, cellInfo{key: fmt.Sprintf("fig6/%d", r.SparePercent), attack: "uaa", scheme: "max-we",
				route: "uaa_uncancelable", res: sim.Result{UserWrites: w, DeviceWrites: w}, sum: sum})
		}
		for _, r := range table {
			w := writesOf(r.Normalized)
			extra = append(extra, cellInfo{key: "table/" + r.Scheme, attack: "uaa", scheme: r.Scheme,
				route: "uaa_uncancelable", res: sim.Result{UserWrites: w, DeviceWrites: w}, sum: sum})
		}
		// Fig 6 and the table are timed as wholes; spread that time over
		// their simulations by device writes for the per-route costs.
		spreadDur(extra[:len(fig6)], t1.Sub(t0))
		spreadDur(extra[len(fig6):], t2.Sub(t1))

		cells := make([]runner.Cell[sim.Result], len(cfgs))
		for j, cfg := range cfgs {
			cfg := cfg
			info := cellInfo{key: keys[j], attack: cfg.Attack, scheme: cfg.Scheme, route: matrixRoute(cfg), sum: sum}
			cells[j] = timedCell(log, rec, &root, group, info, func(ctx context.Context) (sim.Result, error) {
				return runMatrixCell(ctx, cfg)
			})
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rep, err := runner.Run(ctx, runner.Config{Parallelism: opts.parallelism}, cells)
		if err != nil {
			return err
		}
		t3 := time.Now()
		rec.record(root, 0, "sweep", group, t0, t3)
		if len(rep.Failed) > 0 {
			return fmt.Errorf("%d cells failed: %v", len(rep.Failed), rep.Failed)
		}
		rounds = append(rounds, sweepRound{cells: log.cells, extra: extra, runnerWall: t3.Sub(t2)})
		if i == 0 {
			rss = peakRSSMB()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rounds {
		rounds[i].dur = loop.times[i]
	}

	byKey := map[string]sim.Result{}
	for _, c := range rounds[0].cells {
		checkResult(chk, c.key, c.res, c.sum)
		byKey[c.key] = c.res
	}
	checkRepeat(chk, rounds)
	checkUnleveled(chk, opts.seed, fig6, table, byKey)

	out := &outcome{e2e: metrics{}, layers: metrics{}}
	perRound := int64(len(fig6Percents) + 4 + len(cfgs))
	for _, r := range rounds {
		out.attempted += perRound
		out.failed += perRound - int64(r.ops())
	}
	sweepMetrics(out.e2e, st.setups, rounds, rss)
	if opts.trace {
		if err := sweepLayers(opts, out, loop, rounds, st.profiles, st.builds); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// spreadDur shares d over cells in proportion to their device writes.
func spreadDur(cells []cellInfo, d time.Duration) {
	var total int64
	for _, c := range cells {
		total += c.res.DeviceWrites
	}
	for i := range cells {
		if total > 0 {
			cells[i].dur = time.Duration(float64(d) * float64(cells[i].res.DeviceWrites) / float64(total))
		}
	}
}

// checkUnleveled applies the analytic and ordering checks of the
// unleveled workload.
func checkUnleveled(chk *checker, seed uint64, fig6 []experiments.Fig6Row, table []experiments.UAARow, byKey map[string]sim.Result) {
	cfg := maxwe.DefaultConfig()
	cfg.Seed = seed
	sys, err := maxwe.New(cfg)
	if err != nil {
		chk.check(false, "maxwe.New: %v", err)
		return
	}
	an := sys.Analytic()
	q := cfg.VariationQ
	tab := map[string]float64{}
	for _, r := range table {
		tab[r.Scheme] = r.Normalized
	}
	checkAnalytic(chk, tab["none"], byKey["uaa/pcd"].NormalizedLifetime, byKey["uaa/ps-worst"].NormalizedLifetime,
		byKey["uaa/max-we"].NormalizedLifetime, q, an.NormalizedPCDPS(), an.NormalizedPSWorst(), an.NormalizedMaxWE())
	checkTableOrder(chk, tab)
	checkFig6Steps(chk, fig6)
	// The table runs UAA on the cyclic fast-forward, the matrix on the
	// batched loop: the same configurations must agree exactly.
	chk.check(tab["max-we"] == byKey["uaa/max-we"].NormalizedLifetime && tab["ps-worst"] == byKey["uaa/ps-worst"].NormalizedLifetime,
		"UAA table (cyclic) %v/%v differs from matrix (batched) %v/%v", tab["max-we"], tab["ps-worst"],
		byKey["uaa/max-we"].NormalizedLifetime, byKey["uaa/ps-worst"].NormalizedLifetime)
	cyc, err1 := maxwe.New(cfg)
	bat, err2 := maxwe.New(cfg)
	if err1 != nil || err2 != nil {
		chk.check(false, "maxwe.New: %v %v", err1, err2)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rc, rb := cyc.RunLifetime(), bat.RunLifetimeCtx(ctx)
	chk.check(rc == rb, "UAA max-we: cyclic route %+v differs from batched route %+v", rc, rb)
}

// checkAnalytic compares simulated UAA lifetimes with the paper's closed
// forms at the tolerances the repository's integration tests use.
func checkAnalytic(chk *checker, none, pcd, psWorst, maxWE, q, eq7, eq8, eq6 float64) {
	eq5 := 2 / (1 + q)
	chk.check(math.Abs(none-eq5) <= 0.004, "UAA none %v not within 0.004 of Eq 5 %v", none, eq5)
	chk.check(math.Abs(pcd-eq7) <= 0.03, "UAA pcd %v not within 0.03 of Eq 7 %v", pcd, eq7)
	chk.check(math.Abs(psWorst-eq8) <= 0.03, "UAA ps-worst %v not within 0.03 of Eq 8 %v", psWorst, eq8)
	chk.check(maxWE >= 0.9*eq6, "UAA max-we %v below 0.9 x Eq 6 %v", maxWE, eq6)
}

// checkTableOrder checks the Section 5.3.1 ordering
// Max-WE > PCD/PS > PS-worst > none.
func checkTableOrder(chk *checker, tab map[string]float64) {
	chk.check(tab["max-we"] > tab["pcd/ps"] && tab["pcd/ps"] > tab["ps-worst"] && tab["ps-worst"] > tab["none"],
		"UAA table %v not ordered max-we > pcd/ps > ps-worst > none", tab)
}

// checkFig6Steps checks Figure 6 never falls by more than 2% from one
// spare step to the next.
func checkFig6Steps(chk *checker, rows []experiments.Fig6Row) {
	ok := len(rows) > 0
	for i := 1; i < len(rows); i++ {
		if rows[i].Normalized < 0.98*rows[i-1].Normalized {
			ok = false
		}
	}
	chk.check(ok, "Fig 6 %v falls by more than 2%% between spare steps", rows)
}
