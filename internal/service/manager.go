// Package service is the long-running experiment daemon behind cmd/nvmd.
// It accepts sweep jobs (Figure 7/8 grids and custom cell lists) over a
// small JSON HTTP API, runs them on the internal/runner worker pool with
// per-job parallelism and fault-plan options, streams per-cell progress
// as NDJSON, and persists every job durably under a data directory:
//
//   - <id>.spec.json    the normalized job specification (written at
//     submission, before the submit response);
//   - <id>.ckpt.json    the internal/runner JSON checkpoint, appended a
//     cell at a time while the job runs;
//   - <id>.state.json   the terminal state record (done/failed/canceled);
//   - <id>.result.json  the final result document, byte-exact as served.
//
// A daemon killed or drained mid-job therefore loses nothing: on restart
// the manager re-queues every job that has a spec but no terminal state,
// and the runner's fingerprinted checkpoint replays the completed cells,
// so the resumed job's final result is byte-identical to an uninterrupted
// run. Results never include run-dependent bookkeeping (resume counts,
// timing), which is what makes that guarantee testable.
//
// The package is exempt from the maxwelint nondeterminism rule (like
// internal/runner): goroutines, sync and wall-clock metrics are its job.
// The simulations it supervises remain pure functions of their specs.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync" //lint:allow nondeterminism "the manager is the daemon's concurrency boundary; job payloads stay deterministic per spec"

	"maxwe"
	"maxwe/internal/atomicio"
	"maxwe/internal/experiments"
	"maxwe/internal/memo"
	"maxwe/internal/runner"
)

// Config tunes a Manager.
type Config struct {
	// DataDir is the durable job store. It is created if missing.
	DataDir string
	// JobWorkers bounds how many jobs execute concurrently (default 2).
	// Each job additionally fans its cells out per its own Parallelism.
	JobWorkers int
	// QueueDepth bounds the backlog of accepted-but-not-running jobs
	// (default 1024). Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// FS is the filesystem the durable store reads and writes through.
	// Nil selects the real filesystem (atomicio.OS); the chaos harness
	// passes a fault-injecting implementation.
	FS atomicio.FS
	// CacheDir, when non-empty, enables the cluster-wide content-addressed
	// result cache rooted there (internal/memo), shared by every job this
	// daemon runs: identical cells across jobs — repeated figure grids,
	// overlapping seed sweeps, resubmitted specs — are computed once and
	// served as memo hits everywhere else. cmd/nvmd defaults it to
	// <DataDir>/cache when -cache is set. Empty disables caching.
	CacheDir string
	// CacheEntries bounds the cache's in-process LRU (0 selects the memo
	// package default). Ignored when CacheDir is empty.
	CacheEntries int
	// CachePeer, when non-nil, is the remote fill tier of the memo cache:
	// a local miss probes the peer (another daemon's or a coordinator's
	// cluster cache endpoint) before computing. Ignored when CacheDir is
	// empty. cmd/nvmd wires cluster.CachePeer here from -cache-peer.
	CachePeer memo.Peer
	// Dispatcher, when non-nil, enables federated sweeps: jobs submitted
	// with "federated": true hand each cell to it instead of computing
	// in-process. cmd/nvmd wires the cluster coordinator here; everything
	// else about the job (ordering, checkpoints, events, results) is
	// unchanged, so federated and local runs are byte-identical.
	Dispatcher CellDispatcher
}

// Sentinel errors surfaced to the HTTP layer.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrQueueFull reports a submission rejected because the backlog is
	// at Config.QueueDepth.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrClosed reports an operation on a manager that has been drained.
	ErrClosed = errors.New("service: manager is closed")
	// ErrNotFinished reports a result request for a job that has not
	// completed.
	ErrNotFinished = errors.New("service: job has not finished")
	// ErrTerminal reports a cancel request for a job already in a
	// terminal state.
	ErrTerminal = errors.New("service: job already finished")
)

// Manager owns the job registry, the durable store and the job workers.
// Create with NewManager, call Start, and Close to drain.
type Manager struct {
	cfg     Config
	fs      atomicio.FS
	metrics *Metrics
	// cache is the cluster-wide memo cache (nil when Config.CacheDir is
	// empty). It is handed to every job's runner config, so singleflight
	// dedup spans concurrently running jobs.
	cache *memo.Cache

	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *job
	wg      sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	seq     int
	started bool
	closed  bool
	// idem maps Idempotency-Key values to the job ID their submission
	// created, so a client retrying a Submit whose response was lost gets
	// the original job back instead of a duplicate. In-memory only: after
	// a daemon restart a retried submit creates a fresh job, which is
	// acceptable degradation — same canonical spec, identical results.
	idem map[string]string
}

// stateRecord is the terminal state document persisted per job.
type stateRecord struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// checkpointDoc mirrors the internal/runner checkpoint JSON for reading
// partial results.
type checkpointDoc struct {
	Fingerprint string                     `json:"fingerprint"`
	Completed   map[string]json.RawMessage `json:"completed"`
}

// NewManager opens (or creates) the data directory and loads every job
// recorded there: terminal jobs become immediately queryable, incomplete
// ones are re-queued when Start is called. A spec or state file that does
// not parse is a startup error — the store is written atomically, so
// corruption there means something outside the daemon touched it.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("service: Config.DataDir is required")
	}
	if cfg.JobWorkers == 0 {
		cfg.JobWorkers = 2
	}
	if cfg.JobWorkers < 0 {
		return nil, errors.New("service: Config.JobWorkers must be >= 0")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.QueueDepth < 0 {
		return nil, errors.New("service: Config.QueueDepth must be >= 0")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: create data dir: %w", err)
	}
	if cfg.FS == nil {
		cfg.FS = atomicio.OS
	}
	var cache *memo.Cache
	if cfg.CacheDir != "" {
		var err error
		cache, err = memo.Open(memo.Options{Dir: cfg.CacheDir, MaxEntries: cfg.CacheEntries, FS: cfg.FS, Peer: cfg.CachePeer})
		if err != nil {
			return nil, fmt.Errorf("service: open result cache: %w", err)
		}
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		fs:      cfg.FS,
		cache:   cache,
		metrics: NewMetrics(),
		baseCtx: ctx,
		stop:    stop,
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
		idem:    make(map[string]string),
	}
	if err := m.load(); err != nil {
		stop()
		return nil, err
	}
	return m, nil
}

// load scans the data directory and rebuilds the job registry.
func (m *Manager) load() error {
	specs, err := filepath.Glob(filepath.Join(m.cfg.DataDir, "*.spec.json"))
	if err != nil {
		return fmt.Errorf("service: scan data dir: %w", err)
	}
	sort.Strings(specs)
	for _, path := range specs {
		id := strings.TrimSuffix(filepath.Base(path), ".spec.json")
		raw, err := m.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("service: read %s: %w", path, err)
		}
		var spec JobSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("service: parse %s: %w", path, err)
		}
		spec, err = spec.normalize()
		if err != nil {
			return fmt.Errorf("service: %s: %w", path, err)
		}
		j := newJob(id, spec)
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n > m.seq {
			m.seq = n
		}
		if err := m.loadTerminal(j); err != nil {
			return err
		}
		m.jobs[id] = j
	}
	return nil
}

// loadTerminal applies a persisted terminal state to a freshly loaded
// job, if one exists. Jobs without one stay queued.
func (m *Manager) loadTerminal(j *job) error {
	raw, err := m.fs.ReadFile(m.statePath(j.id))
	if errors.Is(err, os.ErrNotExist) {
		j.events.append(Event{Job: j.id, Type: "state", State: StateQueued,
			CellsTotal: j.cellsTotal})
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: read %s: %w", m.statePath(j.id), err)
	}
	var rec stateRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("service: parse %s: %w", m.statePath(j.id), err)
	}
	if !rec.State.Terminal() {
		return fmt.Errorf("service: %s records non-terminal state %q", m.statePath(j.id), rec.State)
	}
	if rec.State == StateDone {
		res, err := m.fs.ReadFile(m.resultPath(j.id))
		if err != nil {
			return fmt.Errorf("service: read %s: %w", m.resultPath(j.id), err)
		}
		j.result = res
		j.cellsDone = j.cellsTotal
	}
	j.state = rec.State
	j.err = rec.Error
	j.events.append(Event{Job: j.id, Type: "state", State: rec.State, Error: rec.Error,
		CellsDone: j.cellsDone, CellsTotal: j.cellsTotal})
	j.events.finish()
	return nil
}

// Start launches the job workers and enqueues every incomplete job loaded
// from the data directory, in ID order. It is a no-op when called twice.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.closed {
		m.mu.Unlock()
		return
	}
	m.started = true
	pending := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if !j.status().State.Terminal() {
			pending = append(pending, j)
		}
	}
	sort.Slice(pending, func(i, k int) bool { return pending[i].id < pending[k].id })
	m.mu.Unlock()

	for w := 0; w < m.cfg.JobWorkers; w++ {
		m.wg.Add(1)
		go func() { //lint:allow nondeterminism "job workers execute independent jobs; each job's cells and checkpoints are order-committed by the runner"
			defer m.wg.Done()
			for {
				select {
				case j := <-m.queue:
					m.runJob(j)
				case <-m.baseCtx.Done():
					return
				}
			}
		}()
	}
	for _, j := range pending {
		select {
		case m.queue <- j:
		default:
			// More persisted jobs than queue slots: the overflow stays
			// queued in the registry and is picked up on the next start.
			return
		}
	}
}

// Close drains the manager: running jobs are interrupted (their
// checkpoints keep the completed cells), workers are waited for, and the
// interrupted jobs revert to queued so the next Start resumes them. Safe
// to call more than once.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
}

// Done exposes the manager's lifetime context to long-lived HTTP streams,
// which must end when the daemon drains.
func (m *Manager) Done() <-chan struct{} { return m.baseCtx.Done() }

func (m *Manager) specPath(id string) string {
	return filepath.Join(m.cfg.DataDir, id+".spec.json")
}
func (m *Manager) ckptPath(id string) string {
	return filepath.Join(m.cfg.DataDir, id+".ckpt.json")
}
func (m *Manager) statePath(id string) string {
	return filepath.Join(m.cfg.DataDir, id+".state.json")
}
func (m *Manager) resultPath(id string) string {
	return filepath.Join(m.cfg.DataDir, id+".result.json")
}

// writeFile durably writes data through the crash-consistency primitive
// (temp file, fsync, rename, fsync parent dir) on the manager's
// filesystem — the same discipline the runner checkpoint uses.
func (m *Manager) writeFile(path string, data []byte) error {
	if err := atomicio.WriteFile(m.fs, path, data); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// Submit validates, persists and enqueues a job, returning its status.
// The spec file is durably on disk before Submit returns, so an accepted
// job survives an immediate crash.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	return m.SubmitIdempotent(spec, "")
}

// SubmitIdempotent is Submit keyed by a client-chosen idempotency token:
// a repeated submission with a key already recorded returns the status of
// the job that submission created instead of creating a duplicate. An
// empty key disables deduplication. The map is in-memory; see the idem
// field for the restart semantics.
func (m *Manager) SubmitIdempotent(spec JobSpec, key string) (JobStatus, error) {
	norm, err := spec.normalize()
	if err != nil {
		return JobStatus{}, err
	}
	raw, err := json.MarshalIndent(norm, "", "  ")
	if err != nil {
		return JobStatus{}, fmt.Errorf("service: marshal spec: %w", err)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, ErrClosed
	}
	if key != "" {
		if prior, ok := m.idem[key]; ok {
			j := m.jobs[prior]
			m.mu.Unlock()
			if j != nil {
				return j.status(), nil
			}
			return JobStatus{}, fmt.Errorf("%w: %q", ErrNotFound, prior)
		}
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		m.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
	m.seq++
	id := fmt.Sprintf("job-%06d", m.seq)
	j := newJob(id, norm)
	m.jobs[id] = j
	started := m.started
	m.mu.Unlock()

	if err := m.writeFile(m.specPath(id), append(raw, '\n')); err != nil {
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		return JobStatus{}, err
	}
	if key != "" {
		// Recorded only after the spec is durable: a failed submission must
		// stay retryable under the same key.
		m.mu.Lock()
		m.idem[key] = id
		m.mu.Unlock()
	}
	j.events.append(Event{Job: id, Type: "state", State: StateQueued,
		CellsTotal: j.cellsTotal})
	m.metrics.onSubmit()
	if started {
		select {
		case m.queue <- j:
		default:
			// Raced past the depth check; the job stays persisted and
			// queued, and the next Start picks it up.
		}
	}
	return j.status(), nil
}

// get looks a job up by ID.
func (m *Manager) get(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// Status returns a job's live status. With partial set, the completed
// cell values recorded in the job's checkpoint are attached — the
// "partial results" view of an in-flight sweep.
func (m *Manager) Status(id string, partial bool) (JobStatus, error) {
	j, err := m.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	st := j.status()
	if partial {
		raw, err := m.fs.ReadFile(m.ckptPath(id))
		if err == nil {
			var doc checkpointDoc
			if json.Unmarshal(raw, &doc) == nil && doc.Fingerprint == j.fingerprint {
				st.Partial = doc.Completed
			}
		}
	}
	return st, nil
}

// Jobs lists every known job's status in ID order.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	all := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j)
	}
	m.mu.Unlock()
	sort.Slice(all, func(i, k int) bool { return all[i].id < all[k].id })
	out := make([]JobStatus, len(all))
	for i, j := range all {
		out[i] = j.status()
	}
	return out
}

// Result returns the final result document bytes of a done job — the
// exact bytes persisted at <id>.result.json.
func (m *Manager) Result(id string) ([]byte, error) {
	j, err := m.get(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateDone:
		return j.result, nil
	case j.state.Terminal():
		return nil, fmt.Errorf("%w: job %s %s: %s", ErrNotFinished, id, j.state, j.err)
	default:
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotFinished, id, j.state)
	}
}

// Events returns the job's event log for streaming.
func (m *Manager) Events(id string) (*eventLog, error) {
	j, err := m.get(id)
	if err != nil {
		return nil, err
	}
	return j.events, nil
}

// Cancel cancels a queued or running job. Queued jobs become canceled
// immediately; running jobs are interrupted through their context and
// become canceled when the sweep unwinds (completed cells stay in the
// checkpoint). Canceling a terminal job returns ErrTerminal.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	j, err := m.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return j.status(), fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.state)
	case j.state == StateQueued:
		j.cancelRequested = true
		j.mu.Unlock()
		m.finishJob(j, StateCanceled, "", nil)
	default: // running
		j.cancelRequested = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	return j.status(), nil
}

// MetricsSnapshot renders the /metrics exposition, combining the counter
// set with the live queued/running gauges.
func (m *Manager) MetricsSnapshot() (string, error) {
	queued, running := 0, 0
	for _, st := range m.Jobs() {
		switch st.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	var cache *memo.Stats
	if m.cache != nil {
		s := m.cache.Stats()
		cache = &s
	}
	var b strings.Builder
	if err := m.metrics.write(&b, queued, running, cache); err != nil {
		return "", err
	}
	return b.String(), nil
}

// CacheStatus is the GET /v1/cache/stats document: whether the
// cluster-wide result cache is enabled, where it lives, and its live
// counters (zero when disabled).
type CacheStatus struct {
	Enabled bool       `json:"enabled"`
	Dir     string     `json:"dir,omitempty"`
	Stats   memo.Stats `json:"stats"`
}

// Cache exposes the daemon's memo cache so cmd/nvmd can compose it with
// the cluster layer's peer-fill endpoint. Nil when caching is disabled.
func (m *Manager) Cache() *memo.Cache { return m.cache }

// CacheStats snapshots the cluster-wide result cache.
func (m *Manager) CacheStats() CacheStatus {
	if m.cache == nil {
		return CacheStatus{}
	}
	return CacheStatus{Enabled: true, Dir: m.cfg.CacheDir, Stats: m.cache.Stats()}
}

// finishJob persists and applies a terminal transition. result is nil
// except for StateDone, where it holds the exact document bytes to serve.
func (m *Manager) finishJob(j *job, s State, errMsg string, result []byte) {
	if s == StateDone {
		if err := m.writeFile(m.resultPath(j.id), result); err != nil {
			s, errMsg, result = StateFailed, err.Error(), nil
		}
	}
	rec, err := json.Marshal(stateRecord{State: s, Error: errMsg})
	if err != nil {
		// A two-field struct of plain strings always marshals.
		panic(fmt.Errorf("service: marshal state record: %w", err))
	}
	if err := m.writeFile(m.statePath(j.id), append(rec, '\n')); err != nil {
		// The job completed but its terminal state could not be made
		// durable: surface the I/O failure as the job error so operators
		// see it; the next restart will re-run from the checkpoint.
		s, errMsg = StateFailed, err.Error()
	}
	j.mu.Lock()
	j.result = result
	j.mu.Unlock()
	j.setState(s, errMsg)
	m.metrics.onTerminal(s)
	if s == StateDone {
		// The checkpoint has served its purpose; drop it to keep the
		// data directory bounded by results, not intermediate state. A
		// stale checkpoint would be harmless, so best-effort is enough.
		_ = m.fs.Remove(m.ckptPath(j.id))
	}
}

// runJob drives one job through its sweep, including the
// corrupt-checkpoint quarantine retry and the shutdown-drain re-queue.
func (m *Manager) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled (or otherwise finished) while waiting in the queue.
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.state = StateRunning
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()
	j.events.append(Event{Job: j.id, Type: "state", State: StateRunning,
		CellsDone: j.status().CellsDone, CellsTotal: j.cellsTotal})

	res, interrupted, err := m.sweep(ctx, j)
	if err != nil && errors.Is(err, runner.ErrCorruptCheckpoint) {
		// A checkpoint this daemon cannot parse (truncated by a crash of
		// a foreign writer, or plain garbage): quarantine it and restart
		// the sweep from scratch rather than failing the job forever.
		quarantine := m.ckptPath(j.id) + ".corrupt"
		if renameErr := m.fs.Rename(m.ckptPath(j.id), quarantine); renameErr == nil {
			j.events.append(Event{Job: j.id, Type: "checkpoint",
				Error:      fmt.Sprintf("corrupt checkpoint quarantined to %s", quarantine),
				CellsTotal: j.cellsTotal})
			res, interrupted, err = m.sweep(ctx, j)
		}
	}

	switch {
	case err != nil:
		m.finishJob(j, StateFailed, err.Error(), nil)
	case interrupted:
		if j.canceled() {
			m.finishJob(j, StateCanceled, "", nil)
			return
		}
		// Shutdown drain: revert to queued (no terminal record on disk),
		// so this manager's successor resumes the job from its
		// checkpoint.
		j.mu.Lock()
		j.state = StateQueued
		j.cancel = nil
		j.mu.Unlock()
		j.events.append(Event{Job: j.id, Type: "state", State: StateQueued,
			CellsDone: j.status().CellsDone, CellsTotal: j.cellsTotal})
	default:
		raw, mErr := marshalResult(res)
		if mErr != nil {
			m.finishJob(j, StateFailed, mErr.Error(), nil)
			return
		}
		m.finishJob(j, StateDone, "", raw)
	}
}

// canceled reports whether an API cancel was requested for the job.
func (j *job) canceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// sweep executes the job's cells once through the runner and assembles
// the kind-specific result. It returns interrupted=true when the sweep
// stopped on context cancellation (cancel or drain).
func (m *Manager) sweep(ctx context.Context, j *job) (JobResult, bool, error) {
	rcfg := runner.Config{
		Parallelism:    j.spec.Parallelism,
		Retries:        j.spec.Retries,
		CellTimeout:    j.spec.cellTimeout(),
		CheckpointPath: m.ckptPath(j.id),
		Fingerprint:    j.fingerprint,
		Progress:       j.onRunnerEvent(m.metrics),
		FS:             m.fs,
		Cache:          m.cache,
	}
	switch j.spec.Kind {
	case KindFig7:
		setup, err := j.spec.Setup.setup()
		if err != nil {
			return JobResult{}, false, err
		}
		return runSweep(ctx, m, j, rcfg, experiments.Fig7Cells(setup, j.spec.SWRPercents, j.spec.WLs), j.resultFig7)
	case KindFig8:
		setup, err := j.spec.Setup.setup()
		if err != nil {
			return JobResult{}, false, err
		}
		return runSweep(ctx, m, j, rcfg, experiments.Fig8Cells(setup), j.resultFig8)
	case KindCells:
		return runSweep(ctx, m, j, rcfg, sweepCells(j.spec.Cells),
			func(rep runner.Report[maxwe.Result]) JobResult {
				for _, r := range rep.Results {
					m.metrics.addFaults(r.Faults)
				}
				return j.resultCells(rep)
			})
	}
	// normalize rejected every other kind at submission.
	return JobResult{}, false, fmt.Errorf("service: job %s has unknown kind %q", j.id, j.spec.Kind)
}

// runSweep is the one runner path of every job kind: it optionally wraps
// the cells for cluster dispatch (maybeFederate — a no-op for local
// jobs), runs them, and assembles the result from rep.Results unless the
// sweep was interrupted. Assembly is shared with checkpoint resume, so
// federated, resumed and plain runs all produce the same bytes.
func runSweep[T any](ctx context.Context, m *Manager, j *job, rcfg runner.Config, cells []runner.Cell[T],
	assemble func(runner.Report[T]) JobResult) (JobResult, bool, error) {
	cells, err := maybeFederate(m.cfg.Dispatcher, j, cells)
	if err != nil {
		return JobResult{}, false, err
	}
	rep, err := runner.Run(ctx, rcfg, cells)
	if err != nil {
		return JobResult{}, false, err
	}
	if rep.Interrupted {
		return JobResult{}, true, nil
	}
	return assemble(rep), false, nil
}

// sweepCells expands a cells job into runner cells: each one builds its
// own System from its complete config (fault plan included) and runs to
// failure under the cell context.
func sweepCells(specs []CellSpec) []runner.Cell[maxwe.Result] {
	cells := make([]runner.Cell[maxwe.Result], len(specs))
	for i, cs := range specs {
		cells[i] = cs.Config.Cell(cs.Key)
	}
	return cells
}
