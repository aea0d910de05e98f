package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"maxwe"
	"maxwe/internal/atomicio"
	"maxwe/internal/cluster"
	"maxwe/internal/experiments"
	"maxwe/internal/memo"
	"maxwe/internal/report"
	"maxwe/internal/runner"
	"maxwe/internal/service"
	"maxwe/internal/service/client"
	"maxwe/internal/sim"
	"maxwe/internal/xrand"
)

// ---------------------------------------------------------------------------
// Timing filesystem

// timingFS is the atomicio.FS the nvmd workloads hand the daemon: it
// forwards to the real filesystem and counts durable writes, syncs and
// bytes, and the time spent in every call.
type timingFS struct {
	inner atomicio.FS

	mu     sync.Mutex
	writes int64
	syncs  int64
	bytes  int64
	busy   time.Duration
	syncD  []time.Duration
}

func newTimingFS() *timingFS { return &timingFS{inner: atomicio.OS} }

// reset zeroes the counters (the timed phase starts from zero).
func (t *timingFS) reset() {
	t.mu.Lock()
	t.writes, t.syncs, t.bytes, t.busy, t.syncD = 0, 0, 0, 0, nil
	t.mu.Unlock()
}

func (t *timingFS) note(d time.Duration, sync bool, written int) {
	t.mu.Lock()
	t.busy += d
	t.bytes += int64(written)
	if sync {
		t.syncs++
		t.syncD = append(t.syncD, d)
	}
	t.mu.Unlock()
}

func (t *timingFS) OpenFileWrite(path string) (atomicio.File, error) {
	t0 := time.Now()
	f, err := t.inner.OpenFileWrite(path)
	t.note(time.Since(t0), false, 0)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.writes++
	t.mu.Unlock()
	return &timedFile{f: f, fs: t}, nil
}

func (t *timingFS) ReadFile(path string) ([]byte, error) {
	t0 := time.Now()
	b, err := t.inner.ReadFile(path)
	t.note(time.Since(t0), false, 0)
	return b, err
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := t.inner.Rename(oldpath, newpath)
	t.note(time.Since(t0), false, 0)
	return err
}

func (t *timingFS) Remove(path string) error {
	t0 := time.Now()
	err := t.inner.Remove(path)
	t.note(time.Since(t0), false, 0)
	return err
}

func (t *timingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := t.inner.SyncDir(dir)
	t.note(time.Since(t0), true, 0)
	return err
}

// timedFile times the write handle's calls.
type timedFile struct {
	f  atomicio.File
	fs *timingFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.f.Write(p)
	f.fs.note(time.Since(t0), false, n)
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.f.Sync()
	f.fs.note(time.Since(t0), true, 0)
	return err
}

func (f *timedFile) Close() error {
	t0 := time.Now()
	err := f.f.Close()
	f.fs.note(time.Since(t0), false, 0)
	return err
}

// put stores the atomicio rows per job of the timed phase.
func (t *timingFS) put(m metrics, jobs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(max(jobs, 1))
	m.set("atomicio.writes", float64(t.writes)/n, "count/job")
	m.set("atomicio.syncs", float64(t.syncs)/n, "count/job")
	m.set("atomicio.bytes", float64(t.bytes)/n, "bytes/job")
	m.set("atomicio.sync_ms_p50", median(durationsMS(t.syncD)), "ms")
	m.set("atomicio.busy_ms", ms(t.busy)/n, "ms/job")
}

// ---------------------------------------------------------------------------
// Cluster timing

// clusterLog times the coordinator's DispatchCell (the daemon's
// Dispatcher) and the workers' compute function, and links each compute
// span to the dispatch span of the same cell.
type clusterLog struct {
	rec *recorder

	mu       sync.Mutex
	pending  map[string]int64 // job/key → reserved dispatch span ID
	dispatch []time.Duration
	compute  []time.Duration
	overhead []time.Duration
	started  map[string]time.Duration // job/key → compute duration
	on       bool
}

func newClusterLog(rec *recorder) *clusterLog {
	return &clusterLog{rec: rec, pending: map[string]int64{}, started: map[string]time.Duration{}}
}

// setOn selects whether the durations that follow are kept.
func (c *clusterLog) setOn(on bool) {
	c.mu.Lock()
	c.on = on
	c.mu.Unlock()
}

// timedDispatcher is the daemon's Dispatcher: the coordinator, timed.
type timedDispatcher struct {
	coord *cluster.Coordinator
	log   *clusterLog
}

func (d *timedDispatcher) DispatchCell(ctx context.Context, job string, spec []byte, key, fingerprint string) ([]byte, error) {
	id := d.log.rec.newID()
	k := job + "\x00" + key
	d.log.mu.Lock()
	d.log.pending[k] = id
	d.log.mu.Unlock()
	t0 := time.Now()
	v, err := d.coord.DispatchCell(ctx, job, spec, key, fingerprint)
	t1 := time.Now()
	d.log.rec.record(id, 0, "dispatch", job, t0, t1)
	d.log.mu.Lock()
	delete(d.log.pending, k)
	if c, ok := d.log.started[k]; ok && d.log.on {
		d.log.dispatch = append(d.log.dispatch, t1.Sub(t0))
		d.log.compute = append(d.log.compute, c)
		d.log.overhead = append(d.log.overhead, t1.Sub(t0)-c)
	}
	delete(d.log.started, k)
	d.log.mu.Unlock()
	return v, err
}

// timedCompute is the workers' compute function: service.ComputeCell
// with no cache, timed.
func (c *clusterLog) timedCompute(ctx context.Context, t cluster.Task) (json.RawMessage, error) {
	t0 := time.Now()
	v, err := service.ComputeCell(ctx, t.Spec, t.Key, nil)
	t1 := time.Now()
	k := t.Job + "\x00" + t.Key
	c.mu.Lock()
	parent := c.pending[k]
	c.started[k] = t1.Sub(t0)
	c.mu.Unlock()
	c.rec.record(0, parent, "compute", t.Job, t0, t1)
	return json.RawMessage(v), err
}

// ---------------------------------------------------------------------------
// Daemon

// daemonConfig describes one in-process nvmd.
type daemonConfig struct {
	dataDir, cacheDir string
	fs                *timingFS
	jobWorkers        int
	// workers > 0 makes the daemon a coordinator with that many
	// in-process cluster workers of one slot each.
	workers int
	cl      *clusterLog
}

// daemon is an in-process nvmd behind a loopback HTTP listener.
type daemon struct {
	mgr       *service.Manager
	coord     *cluster.Coordinator
	srv       *http.Server
	url       string
	serveDone chan struct{}
	stopWork  context.CancelFunc
	workersWG sync.WaitGroup
}

func startDaemon(c daemonConfig) (*daemon, error) {
	d := &daemon{serveDone: make(chan struct{})}
	cfg := service.Config{
		DataDir:    c.dataDir,
		JobWorkers: c.jobWorkers,
		FS:         c.fs,
		CacheDir:   c.cacheDir,
		// Large enough that no run evicts: the memo accounting check
		// counts every repeat as a memory hit.
		CacheEntries: 1 << 16,
	}
	if c.workers > 0 {
		d.coord = cluster.NewCoordinator(cluster.Config{EngineSchema: sim.EngineSchemaVersion})
		cfg.Dispatcher = &timedDispatcher{coord: d.coord, log: c.cl}
	}
	mgr, err := service.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	d.mgr = mgr
	mgr.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	if d.coord != nil {
		mux.Handle("/v1/cluster/", cluster.NewHandler(d.coord, nil))
	}
	mux.Handle("/", service.NewHandler(mgr))
	d.srv = &http.Server{Handler: mux}
	d.url = "http://" + ln.Addr().String()
	go func() {
		defer close(d.serveDone)
		_ = d.srv.Serve(ln)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	d.stopWork = cancel
	for i := 0; i < c.workers; i++ {
		d.workersWG.Add(1)
		go func(i int) {
			defer d.workersWG.Done()
			_ = cluster.RunWorker(ctx, cluster.WorkerOptions{
				Coordinator: d.url,
				Compute:     c.cl.timedCompute,
				Info:        cluster.WorkerInfo{Name: fmt.Sprintf("w%d", i), Slots: 1, EngineSchema: sim.EngineSchemaVersion},
			})
		}(i)
	}
	for d.coord != nil && len(d.coord.Workers()) < c.workers {
		time.Sleep(200 * time.Microsecond)
	}
	return d, nil
}

// stop ends the workers, the listener and the manager, waiting for each.
func (d *daemon) stop() {
	d.stopWork()
	d.workersWG.Wait()
	_ = d.srv.Close()
	<-d.serveDone
	d.mgr.Close()
}

// newClient returns a load-driving client with its own connection pool.
func newClient(url string) *client.Client {
	c := client.New(url)
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	return c
}

// ---------------------------------------------------------------------------
// Job stream

// Job-stream shape: per client and round, the client's warm-fill set
// (nvmd_mixed only) and as many specs with fresh seeds. Every round has
// the same shapes in the same order — only the fresh seeds change — so
// rounds carry equal work and their times are comparable.
var (
	warmShapes = []jobShape{{kind: service.KindCells, combos: [3]int{3, 4, 5}}, {kind: service.KindFig7, wls: [2]int{0, 3}}, {kind: service.KindCells, combos: [3]int{6, 7, 0}}}
	newShapes  = []jobShape{{kind: service.KindFig7, wls: [2]int{0, 2}}, {kind: service.KindCells, combos: [3]int{0, 1, 2}}, {kind: service.KindFig7, wls: [2]int{1, 3}}}
)

// jobShape is a small job without its seed: a fig7 grid over two wear
// levelers (indexes into experiments.WLNames) or a cells job of three
// cellCombos.
type jobShape struct {
	kind   string
	wls    [2]int
	combos [3]int
}

// streamSeed derives a non-zero spec seed from the run seed and a path.
func streamSeed(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h = xrand.Hash64(h ^ p)
	}
	if h == 0 {
		h = 1
	}
	return h
}

// cellCombos are the cells a cells job draws from: (attack, scheme,
// leveler) triples that every scheme accepts.
var cellCombos = [][3]string{
	{"uaa", "max-we", ""}, {"bpa", "ps-random", "tlsr"}, {"random", "ps-worst", ""},
	{"hotcold", "max-we", "bwl"}, {"bpa", "pcd", ""}, {"partial-uaa", "ps-random", ""},
	{"bpa", "max-we", "wawl"}, {"repeated", "ps-worst", "pcm-s"},
}

// spec builds the shape's job spec at 128x8 lines, mean endurance 250.
func (sh jobShape) spec(seed uint64) service.JobSpec {
	if sh.kind == service.KindFig7 {
		wls := experiments.WLNames()
		return service.JobSpec{
			Kind: service.KindFig7,
			Setup: &service.SetupSpec{Regions: 128, LinesPerRegion: 8, MeanEndurance: 250,
				Profile: "linear", VariationQ: 50, Psi: 32, Seed: seed},
			SWRPercents: []int{0, 90},
			WLs:         []string{wls[sh.wls[0]], wls[sh.wls[1]]},
			Parallelism: 1,
		}
	}
	spec := service.JobSpec{Kind: service.KindCells, Parallelism: 1}
	for i, ci := range sh.combos {
		c := cellCombos[ci]
		cfg := maxwe.DefaultConfig()
		cfg.Regions, cfg.LinesPerRegion, cfg.MeanEndurance = 128, 8, 250
		cfg.Attack, cfg.Scheme, cfg.WearLeveling, cfg.Seed = c[0], c[1], c[2], seed
		spec.Cells = append(spec.Cells, service.CellSpec{Key: fmt.Sprintf("c%d", i), Config: cfg})
	}
	return spec
}

// warmSpecs is a client's warm-fill set, identical in every round.
func warmSpecs(seed uint64, clientIdx int) []service.JobSpec {
	var out []service.JobSpec
	for j, sh := range warmShapes {
		out = append(out, sh.spec(streamSeed(seed, 1, uint64(clientIdx), uint64(j))))
	}
	return out
}

// newSpecs are a client's fresh-seed specs of one round.
func newSpecs(seed uint64, clientIdx, round int) []service.JobSpec {
	var out []service.JobSpec
	for j, sh := range newShapes {
		out = append(out, sh.spec(streamSeed(seed, 2, uint64(clientIdx), uint64(round), uint64(j))))
	}
	return out
}

// streamEntry is one job of a client's round.
type streamEntry struct {
	spec service.JobSpec
	warm bool
}

// roundStream is a client's round: the warm repeats and the fresh specs
// in an order the run seed picks once for every round.
func roundStream(seed uint64, clientIdx, round int, withWarm bool) []streamEntry {
	var out []streamEntry
	if withWarm {
		for _, s := range warmSpecs(seed, clientIdx) {
			out = append(out, streamEntry{spec: s, warm: true})
		}
	}
	for _, s := range newSpecs(seed, clientIdx, round) {
		out = append(out, streamEntry{spec: s})
	}
	r := xrand.New(streamSeed(seed, 3, uint64(clientIdx)))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// errStop ends a job's event stream once its terminal event arrived.
var errStop = errors.New("stop")

// jobRun is one job as its client saw it.
type jobRun struct {
	entry  streamEntry
	round  int
	id     string
	err    error
	result []byte
	events int
	// t0 is the Submit call; sub, running and term are when the submit
	// returned, the "running" event and the terminal event arrived; t1
	// is when the result was read.
	t0, sub, running, term, t1 time.Time
	// cellDur are start → done intervals of cells computed in-process,
	// as the event stream delivered them.
	cellDur []time.Duration
}

func (j *jobRun) latency() time.Duration { return j.t1.Sub(j.t0) }

// runJob submits one job, follows its events to the terminal state and
// reads its status and result.
func runJob(ctx context.Context, cl *client.Client, e streamEntry, federated bool, round int) *jobRun {
	j := &jobRun{entry: e, round: round, t0: time.Now()}
	spec := e.spec
	spec.Federated = federated
	st, err := cl.Submit(ctx, spec)
	j.sub = time.Now()
	if err != nil {
		j.err = err
		return j
	}
	j.id = st.ID
	starts := map[string]time.Time{}
	var state service.State
	err = cl.Events(ctx, st.ID, func(ev service.Event) error {
		now := time.Now()
		j.events++
		switch {
		case ev.Type == "state" && ev.State == service.StateRunning && j.running.IsZero():
			j.running = now
		case ev.Type == "cell" && ev.Status == "start":
			starts[ev.Cell] = now
		case ev.Type == "cell" && ev.Status == "done":
			if s, ok := starts[ev.Cell]; ok {
				j.cellDur = append(j.cellDur, now.Sub(s))
			}
		case ev.Type == "state" && ev.State.Terminal():
			j.term = now
			state = ev.State
			return errStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		j.err = err
		return j
	}
	if j.running.IsZero() {
		j.running = j.term
	}
	if state != service.StateDone {
		j.err = fmt.Errorf("job %s ended %s", st.ID, state)
		return j
	}
	if _, err := cl.Status(ctx, st.ID, false); err != nil {
		j.err = err
		return j
	}
	j.result, j.err = cl.Result(ctx, st.ID)
	j.t1 = time.Now()
	return j
}

// record adds the job's spans: job → submit, queue, run, result.
func (j *jobRun) record(rec *recorder) {
	id := rec.newID()
	rec.record(0, id, "submit", j.id, j.t0, j.sub)
	rec.record(0, id, "queue", j.id, j.sub, j.running)
	rec.record(0, id, "run", j.id, j.running, j.term)
	rec.record(0, id, "result", j.id, j.term, j.t1)
	rec.record(id, 0, "job", j.id, j.t0, j.t1)
}

// linkDispatch parents every dispatch span to the run span of its job:
// the daemon dispatches before the client knows the run span.
func linkDispatch(spans []span) {
	run := map[string]int64{}
	for _, s := range spans {
		if s.Name == "run" {
			run[s.Group] = s.ID
		}
	}
	for i, s := range spans {
		if s.Name == "dispatch" && s.Parent == 0 {
			spans[i].Parent = run[s.Group]
		}
	}
}

// ---------------------------------------------------------------------------
// Expected results, computed in-process

// expected is the in-process computation of one spec: the result
// document (ID left blank), and every cell's value, Result and
// fingerprint in sweep order.
type expected struct {
	doc   service.JobResult
	cells []expectedCell
}

type expectedCell struct {
	key, fingerprint string
	value            []byte
	info             cellInfo
}

// setupOf resolves a spec's setup; jobShape.spec sets every field.
func setupOf(s *service.SetupSpec) experiments.Setup {
	return experiments.Setup{
		Regions: s.Regions, LinesPerRegion: s.LinesPerRegion, MeanEndurance: s.MeanEndurance,
		ProfileKind: experiments.ProfileLinear, VariationQ: s.VariationQ, Psi: s.Psi, Seed: s.Seed,
	}
}

// computeExpected runs the spec's cells through runner.Run with no
// cache, no service and no cluster, and renders the result document the
// way the service documents its JobResult.
func computeExpected(spec service.JobSpec, setupTimes, buildTimes *[]time.Duration) (*expected, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := &expected{doc: service.JobResult{Kind: spec.Kind}}
	switch spec.Kind {
	case service.KindFig7:
		s := setupOf(spec.Setup)
		t0 := time.Now()
		p := s.Profile()
		t1 := time.Now()
		cells := experiments.Fig7Cells(s, spec.SWRPercents, spec.WLs)
		t2 := time.Now()
		*setupTimes = append(*setupTimes, t1.Sub(t0))
		*buildTimes = append(*buildTimes, t2.Sub(t1))
		// The benchmark's own BPA cells (the constructors and seeds
		// experiments uses) give each cell's whole Result, where a Fig7Row
		// carries only the lifetime. The result-bytes check proves they
		// agree with the experiments cells the daemon ran.
		own := make([]runner.Cell[sim.Result], len(cells))
		specs := map[string]bpaSpec{}
		i := 0
		for _, wl := range spec.WLs {
			for _, pct := range spec.SWRPercents {
				b := bpaSpec{key: fmt.Sprintf("fig7/%s/%d", wl, pct), wl: wl, scheme: "max-we", swrPct: pct}
				specs[b.key] = b
				own[i] = runner.Cell[sim.Result]{Key: b.key, Run: func(ctx context.Context) (sim.Result, error) {
					return b.run(ctx, s, p)
				}}
				i++
			}
		}
		rep, err := runner.Run(ctx, runner.Config{Parallelism: 1}, own)
		if err != nil {
			return nil, err
		}
		if len(rep.Failed) > 0 {
			ex.doc.Failed = rep.Failed
		}
		byKey := map[string]experiments.Fig7Row{}
		for k, res := range rep.Results {
			byKey[k] = experiments.Fig7Row{WL: specs[k].wl, SWRPercent: specs[k].swrPct, Normalized: res.NormalizedLifetime}
		}
		rows := experiments.Fig7FromResults(byKey, spec.SWRPercents, spec.WLs)
		ex.doc.Fig7 = rows
		t := report.NewTable("Figure 7 — normalized lifetime under BPA vs SWR percentage",
			"wear leveling", "swr %", "normalized lifetime")
		for _, r := range rows {
			t.AddRow(r.WL, r.SWRPercent, r.Normalized)
		}
		ex.doc.Table, ex.doc.CSV = t.String(), t.CSV()
		for _, c := range cells {
			raw, err := json.Marshal(byKey[c.Key])
			if err != nil {
				return nil, err
			}
			info := specs[c.Key].info(p)
			info.res = rep.Results[c.Key]
			ex.cells = append(ex.cells, expectedCell{key: c.Key, fingerprint: c.Fingerprint, value: raw, info: info})
		}
	case service.KindCells:
		cells := make([]runner.Cell[maxwe.Result], len(spec.Cells))
		for i, cs := range spec.Cells {
			cfg := cs.Config
			cells[i] = runner.Cell[maxwe.Result]{Key: cs.Key, Run: func(ctx context.Context) (maxwe.Result, error) {
				return runMatrixCell(ctx, cfg)
			}}
		}
		rep, err := runner.Run(ctx, runner.Config{Parallelism: 1}, cells)
		if err != nil {
			return nil, err
		}
		if len(rep.Failed) > 0 {
			ex.doc.Failed = rep.Failed
		}
		ex.doc.Cells = rep.Results
		t := report.NewTable("Custom cells — lifetime per configuration",
			"cell", "normalized lifetime", "user writes", "device writes", "worn lines", "spares used")
		keys := make([]string, 0, len(rep.Results))
		for k := range rep.Results {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r := rep.Results[k]
			t.AddRow(k, r.NormalizedLifetime, r.UserWrites, r.DeviceWrites, r.WornLines, r.SparesUsed)
		}
		ex.doc.Table, ex.doc.CSV = t.String(), t.CSV()
		for _, cs := range spec.Cells {
			res := rep.Results[cs.Key]
			raw, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			sys, err := maxwe.New(cs.Config)
			if err != nil {
				return nil, err
			}
			ex.cells = append(ex.cells, expectedCell{key: cs.Key, fingerprint: cs.Config.Fingerprint(), value: raw,
				info: cellInfo{key: cs.Key, attack: cs.Config.Attack, scheme: cs.Config.Scheme, wl: cs.Config.WearLeveling,
					res: res, sum: sys.IdealLifetime()}})
		}
	default:
		return nil, fmt.Errorf("unexpected kind %q", spec.Kind)
	}
	return ex, nil
}

// bytesFor renders the expected result document of a job.
func (e *expected) bytesFor(id string) ([]byte, error) {
	doc := e.doc
	doc.ID = id
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// expectations memoizes computeExpected per distinct spec.
type expectations struct {
	mu           sync.Mutex
	bySpec       map[string]*expected
	setup, build []time.Duration
}

func specKey(spec service.JobSpec) (string, error) {
	raw, err := json.Marshal(spec)
	return string(raw), err
}

func (x *expectations) get(spec service.JobSpec) (*expected, error) {
	key, err := specKey(spec)
	if err != nil {
		return nil, err
	}
	x.mu.Lock()
	e, ok := x.bySpec[key]
	x.mu.Unlock()
	if ok {
		return e, nil
	}
	var setup, build []time.Duration
	e, err = computeExpected(spec, &setup, &build)
	if err != nil {
		return nil, err
	}
	x.mu.Lock()
	x.bySpec[key] = e
	x.setup = append(x.setup, setup...)
	x.build = append(x.build, build...)
	x.mu.Unlock()
	return e, nil
}

// prefetch computes the expectations of every job's spec on one worker
// per CPU. It runs after the timed phase, when the CPUs are free.
func (x *expectations) prefetch(jobs [][]*jobRun) error {
	work := make(chan service.JobSpec)
	errs := make(chan error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for spec := range work {
				if _, err := x.get(spec); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, rj := range jobs {
		for _, j := range rj {
			work <- j.entry.spec
		}
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The nvmd workloads

// nvmdParams shape one nvmd run.
type nvmdParams struct {
	// federated submits with federated: true to a coordinator daemon with
	// one in-process worker per client; memo is off.
	federated bool
	// memo turns the cache on, warm-fills it and restarts the daemon.
	memo bool
	// clients is the number of closed-loop clients (and job workers).
	clients int
	// rounds > 0 fixes the number of rounds (the layer probe); 0 runs
	// rounds until the measuring time is spent.
	rounds int
	// setups is how many times set-up is repeated (the fastest is
	// reported; the last daemon serves the run).
	setups int
}

// nvmdRun is the state of one nvmd workload run.
type nvmdRun struct {
	p      nvmdParams
	opts   options
	rec    *recorder
	fs     *timingFS
	cl     *clusterLog
	d      *daemon
	root   string
	data   string
	cache  string
	setups []time.Duration
	loop   *roundLoop
	jobs   [][]*jobRun // per round
	ex     *expectations
	// rss is the peak resident set once rssJobs jobs have completed, so
	// it does not grow with however many rounds the run fits in.
	rss float64
}

// rssJobs is the job count at which an nvmd run reads its peak RSS.
const rssJobs = 240

func runNvmdMixed(opts options, chk *checker) (*outcome, error) {
	return runNvmd(opts, chk, nvmdParams{memo: true, clients: opts.clients, setups: 11})
}

func runFederated(opts options, chk *checker) (*outcome, error) {
	return runNvmd(opts, chk, nvmdParams{federated: true, clients: opts.clients, setups: 31})
}

func runNvmd(opts options, chk *checker, p nvmdParams) (*outcome, error) {
	r, err := startNvmd(opts, p)
	if err != nil {
		return nil, err
	}
	defer removeAll(r.root)
	if err := r.timed(); err != nil {
		r.d.stop()
		return nil, err
	}
	out := &outcome{e2e: metrics{}, layers: metrics{}, fsInfo: []string{"data " + r.data + ": " + fsType(r.data)}}
	if p.memo {
		out.fsInfo = append(out.fsInfo, "cache "+r.cache+": "+fsType(r.cache))
	}
	jobs := 0
	for _, rj := range r.jobs {
		for _, j := range rj {
			jobs++
			if j.err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: job %s (round %d): %v\n", j.id, j.round, j.err)
			}
		}
	}
	out.attempted = int64(jobs)
	if err := r.ex.prefetch(r.jobs); err != nil {
		r.d.stop()
		return nil, err
	}
	var stats memo.Stats
	if c := r.d.mgr.Cache(); c != nil {
		stats = c.Stats()
	}
	var cstats cluster.Stats
	if r.d.coord != nil {
		cstats = r.d.coord.Stats()
	}
	if opts.trace {
		if err := r.layers(out, stats, cstats); err != nil {
			r.d.stop()
			return nil, err
		}
	}
	r.d.stop()
	if err := r.check(chk, stats, cstats); err != nil {
		return nil, err
	}
	if out.latencySamples, err = r.endToEnd(out.e2e); err != nil {
		return nil, err
	}
	return out, nil
}

// startNvmd performs the set-up: the daemon and its listener, the
// workers' registration, and on nvmd_mixed the warm-fill pass and the
// daemon restart. It is repeated p.setups times; the last daemon stays.
func startNvmd(opts options, p nvmdParams) (*nvmdRun, error) {
	root, err := scratchDir(opts, "nvmd")
	if err != nil {
		return nil, err
	}
	r := &nvmdRun{p: p, opts: opts, root: root, rec: newRecorder(),
		ex: &expectations{bySpec: map[string]*expected{}}}
	r.cl = newClusterLog(r.rec)
	for k := 0; k < max(p.setups, 1); k++ {
		if r.d != nil {
			r.d.stop()
		}
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", k))
		r.data, r.cache = filepath.Join(dir, "data"), ""
		if p.memo {
			r.cache = filepath.Join(dir, "cache")
		}
		r.fs = newTimingFS()
		runtime.GC()
		t0 := time.Now()
		if err := r.setupOnce(); err != nil {
			removeAll(root)
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0))
	}
	return r, nil
}

func (r *nvmdRun) daemonConfig() daemonConfig {
	c := daemonConfig{dataDir: r.data, cacheDir: r.cache, fs: r.fs, jobWorkers: r.p.clients, cl: r.cl}
	if r.p.federated {
		c.workers = r.p.clients
	}
	return c
}

func (r *nvmdRun) setupOnce() error {
	d, err := startDaemon(r.daemonConfig())
	if err != nil {
		return err
	}
	r.d = d
	if !r.p.memo {
		return nil
	}
	cl := newClient(d.url)
	ctx := context.Background()
	for c := 0; c < r.p.clients; c++ {
		for _, spec := range warmSpecs(r.opts.seed, c) {
			j := runJob(ctx, cl, streamEntry{spec: spec, warm: true}, false, -1)
			if j.err != nil {
				d.stop()
				return fmt.Errorf("warm-fill: %w", j.err)
			}
		}
	}
	d.stop()
	r.d, err = startDaemon(r.daemonConfig())
	return err
}

// timed runs the measured rounds: every client runs its round's jobs in
// order, and a round ends when every client has finished it.
func (r *nvmdRun) timed() error {
	r.fs.reset()
	r.loop = &roundLoop{opts: r.opts, rec: r.rec, fixed: r.p.rounds}
	clients := make([]*client.Client, r.p.clients)
	for i := range clients {
		clients[i] = newClient(r.d.url)
	}
	ctx := context.Background()
	round := func(i int) error {
		r.cl.setOn(r.loop.isTraced(i))
		per := make([][]*jobRun, len(clients))
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, e := range roundStream(r.opts.seed, c, i, r.p.memo) {
					j := runJob(ctx, clients[c], e, r.p.federated, i)
					if j.err == nil {
						j.record(r.rec)
					}
					per[c] = append(per[c], j)
				}
			}(c)
		}
		wg.Wait()
		var all []*jobRun
		for _, js := range per {
			all = append(all, js...)
		}
		r.jobs = append(r.jobs, all)
		if r.rss == 0 && r.jobCount() >= rssJobs {
			r.rss = peakRSSMB()
		}
		return nil
	}
	if err := r.loop.run(round); err != nil {
		return err
	}
	if r.rss == 0 {
		r.rss = peakRSSMB()
	}
	return nil
}

// check verifies every job's result bytes against the in-process
// computation, the memo accounting against the stream's fingerprints,
// and (federated) that no lease was reassigned.
func (r *nvmdRun) check(chk *checker, stats memo.Stats, cstats cluster.Stats) error {
	mem := map[string]bool{}
	var want memo.Stats
	cellsTotal := 0
	for _, rj := range r.jobs {
		for _, j := range rj {
			ex, err := r.ex.get(j.entry.spec)
			if err != nil {
				return err
			}
			cellsTotal += len(ex.cells)
			for _, c := range ex.cells {
				checkResult(chk, j.id+"/"+c.key, c.info.res, c.info.sum)
				switch {
				case mem[c.fingerprint]:
					want.MemHits++
				case j.entry.warm:
					// The warm-fill pass put every warm cell on disk.
					want.DiskHits++
				default:
					want.Misses++
				}
				mem[c.fingerprint] = true
			}
			if j.err != nil {
				continue
			}
			exp, err := ex.bytesFor(j.id)
			if err != nil {
				return err
			}
			chk.check(string(exp) == string(j.result), "job %s: result bytes differ from the in-process computation", j.id)
		}
	}
	if r.p.memo {
		want.Hits = want.MemHits + want.DiskHits
		want.Puts = want.Misses
		chk.check(stats.Hits == want.Hits && stats.MemHits == want.MemHits && stats.DiskHits == want.DiskHits &&
			stats.Misses == want.Misses && stats.Puts == want.Puts && stats.DedupHits == 0,
			"memo stats hits %d (mem %d, disk %d, dedup %d) misses %d puts %d; the stream implies hits %d (mem %d, disk %d) misses %d puts %d",
			stats.Hits, stats.MemHits, stats.DiskHits, stats.DedupHits, stats.Misses, stats.Puts,
			want.Hits, want.MemHits, want.DiskHits, want.Misses, want.Puts)
	}
	if r.p.federated {
		chk.check(cstats.Reassigned == 0, "cluster reassigned %d leases", cstats.Reassigned)
		chk.check(cstats.Dispatched == int64(cellsTotal), "cluster dispatched %d cells, the stream has %d", cstats.Dispatched, cellsTotal)
	}
	return nil
}

// roundCells returns the delivered cells of a round's jobs.
func (r *nvmdRun) roundCells(i int) ([]cellInfo, int, error) {
	var cells []cellInfo
	n := 0
	for _, j := range r.jobs[i] {
		if j.err != nil {
			continue
		}
		ex, err := r.ex.get(j.entry.spec)
		if err != nil {
			return nil, 0, err
		}
		n += len(ex.cells)
		for _, c := range ex.cells {
			cells = append(cells, c.info)
		}
	}
	return cells, n, nil
}

// endToEnd stores the end-to-end metrics of an nvmd run. As on the sweep
// workloads, the host's CPU and disk are shared with busy neighbours, so
// the time metrics are taken over the calm rounds: the fastest quarter of
// the run's rounds, each a whole round of the same job mix.
func (r *nvmdRun) endToEnd(m metrics) (int, error) {
	order := make([]int, len(r.jobs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.loop.times[order[a]] < r.loop.times[order[b]] })
	order = order[:max(1, (len(order)+3)/4)]
	var secs, lat []float64
	var total time.Duration
	var cells, writes int64
	for _, i := range order {
		rc, n, err := r.roundCells(i)
		if err != nil {
			return 0, err
		}
		for _, c := range rc {
			writes += c.res.DeviceWrites
		}
		cells += int64(n)
		total += r.loop.times[i]
		secs = append(secs, r.loop.times[i].Seconds())
		for _, j := range r.jobs[i] {
			if j.err == nil {
				lat = append(lat, ms(j.latency()))
			}
		}
	}
	m.set("setup_s", fastest(r.setups).Seconds(), "s")
	m.set("sweep_s", median(secs), "s")
	m.set("cells_per_s", float64(cells)/total.Seconds(), "1/s")
	m.set("sim_writes_per_s", float64(writes)/total.Seconds(), "1/s")
	m.set("peak_rss_mb", r.rss, "MB")
	m.set("job_p50_ms", quantile(lat, 0.5), "ms")
	m.set("job_p90_ms", quantile(lat, 0.9), "ms")
	return len(lat), nil
}

// fastest is the shortest of the repeated set-ups. Each repetition
// builds a fresh daemon; the fastest is the set-up cost with no
// contention.
func fastest(ds []time.Duration) time.Duration {
	best := ds[0]
	for _, d := range ds[1:] {
		best = min(best, d)
	}
	return best
}

// serviceRows stores the service rows from the traced rounds' jobs.
func (r *nvmdRun) serviceRows(m metrics) {
	var sub, queue, run, res, evs, size []float64
	for i, rj := range r.jobs {
		if !r.loop.traced[i] {
			continue
		}
		for _, j := range rj {
			if j.err != nil {
				continue
			}
			sub = append(sub, ms(j.sub.Sub(j.t0)))
			queue = append(queue, ms(j.running.Sub(j.sub)))
			run = append(run, ms(j.term.Sub(j.running)))
			res = append(res, ms(j.t1.Sub(j.term)))
			evs = append(evs, float64(j.events))
			size = append(size, float64(len(j.result)))
		}
	}
	m.set("service.submit_ms_p50", median(sub), "ms")
	m.set("service.queue_ms_p50", median(queue), "ms")
	m.set("service.run_ms_p50", median(run), "ms")
	m.set("service.result_ms_p50", median(res), "ms")
	m.set("service.events_per_job", median(evs), "count")
	m.set("service.result_bytes", median(size), "bytes")
}

// clusterRows stores the cluster rows.
func (r *nvmdRun) clusterRows(m metrics, s cluster.Stats) {
	r.cl.mu.Lock()
	defer r.cl.mu.Unlock()
	m.set("cluster.dispatch_ms_p50", median(durationsMS(r.cl.dispatch)), "ms")
	m.set("cluster.compute_ms_p50", median(durationsMS(r.cl.compute)), "ms")
	m.set("cluster.dispatch_overhead_ms_p50", median(durationsMS(r.cl.overhead)), "ms")
	m.set("cluster.dispatched", float64(s.Dispatched), "count")
	m.set("cluster.reassigned", float64(s.Reassigned), "count")
	m.set("cluster.late_results", float64(s.LateResults), "count")
}

func (r *nvmdRun) jobCount() int {
	n := 0
	for _, rj := range r.jobs {
		n += len(rj)
	}
	return n
}

// layers fills the per-layer rows of an nvmd workload's traced run.
func (r *nvmdRun) layers(out *outcome, stats memo.Stats, cstats cluster.Stats) error {
	m := out.layers
	r.serviceRows(m)
	r.fs.put(m, r.jobCount())
	r.loop.goDelta.put(m)

	u := probeUnits(r.opts.seed)
	u.put(m)
	probe, overhead, err := routeProbe(r.opts.seed)
	if err != nil {
		return err
	}
	simRows(m, probe, probe, u)
	m.set("runner.overhead_ms", ms(overhead), "ms")
	cells, _, err := r.roundCells(0)
	if err != nil {
		return err
	}
	statRows(m, cells)
	// Cell time as the daemon computed it: the event stream's start →
	// done intervals (nvmd_mixed) or the workers' compute spans
	// (federated).
	var cellMS []float64
	if r.p.federated {
		cellMS = durationsMS(spansNamed(r.rec.snapshot(), "compute"))
	} else {
		for i, rj := range r.jobs {
			for _, j := range rj {
				if r.loop.traced[i] {
					cellMS = append(cellMS, durationsMS(j.cellDur)...)
				}
			}
		}
	}
	if len(cellMS) > 0 {
		m.set("sim.cell_ms_p50", median(cellMS), "ms")
	}
	m.set("endurance.profile_ms", median(durationsMS(r.ex.setup)), "ms")
	m.set("experiments.cells_build_ms", median(durationsMS(r.ex.build)), "ms")

	if r.p.memo {
		memoCounters(m, stats)
		values := map[string][]byte{}
		for i := range r.jobs {
			for _, j := range r.jobs[i] {
				ex, err := r.ex.get(j.entry.spec)
				if err != nil {
					return err
				}
				for _, c := range ex.cells {
					values[c.fingerprint] = c.value
				}
			}
		}
		mem, err := timeGets(r.d.mgr.Cache(), values)
		if err != nil {
			return err
		}
		cold, err := memo.Open(memo.Options{Dir: r.cache})
		if err != nil {
			return err
		}
		disk, err := timeGets(cold, values)
		if err != nil {
			return err
		}
		m.set("memo.mem_get_us", median(mem), "us")
		m.set("memo.disk_get_us", median(disk), "us")
	} else {
		values := map[string][]byte{}
		for _, c := range cells {
			raw, err := json.Marshal(c.res)
			if err != nil {
				return err
			}
			values[fmt.Sprintf("perfbench/%d/%s/%d", r.opts.seed, c.key, c.res.UserWrites)] = raw
		}
		mm, err := memoProbe(r.opts, values)
		if err != nil {
			return err
		}
		for k, v := range mm {
			m[k] = v
		}
	}
	if r.p.federated {
		r.clusterRows(m, cstats)
	} else if r.p.rounds == 0 {
		sm, err := serviceProbe(r.opts)
		if err != nil {
			return err
		}
		for k, v := range sm {
			if len(k) > 8 && k[:8] == "cluster." {
				m[k] = v
			}
		}
	}

	spans := r.rec.snapshot()
	linkDispatch(spans)
	traced, untraced := r.loop.split()
	out.report = decomposition(spans, r.loop.wallSpan, r.p.clients, traced, untraced)
	path, err := writeSpans(r.opts, spans)
	if err != nil {
		return err
	}
	out.report = append(out.report, "spans written to "+path)
	return nil
}

// serviceProbe measures the service, cluster and atomicio layers for the
// workloads that do not exercise them: one client submits one round of
// fresh small jobs, federated, to a coordinator daemon with one worker.
func serviceProbe(opts options) (metrics, error) {
	r, err := startNvmd(opts, nvmdParams{federated: true, clients: 1, rounds: 2, setups: 1})
	if err != nil {
		return nil, err
	}
	defer removeAll(r.root)
	if err := r.timed(); err != nil {
		r.d.stop()
		return nil, err
	}
	cstats := r.d.coord.Stats()
	r.d.stop()
	for _, rj := range r.jobs {
		for _, j := range rj {
			if j.err != nil {
				return nil, fmt.Errorf("service probe: job %s: %w", j.id, j.err)
			}
		}
	}
	m := metrics{}
	r.serviceRows(m)
	r.clusterRows(m, cstats)
	r.fs.put(m, r.jobCount())
	return m, nil
}
