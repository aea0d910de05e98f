// coordinator.go is the scheduling half of the federation: a worker
// registry with TTL expiry, a FIFO task queue leased oldest-first to any
// worker with a free slot, lease deadlines with lazy expiry and
// reassignment, and a long-poll lease endpoint driven by the same
// closed-channel wake pattern as the service event log. DispatchCell is
// the bridge the sweep runner calls: it blocks until some worker has
// reported the cell's canonical JSON (or the job context ends), so the
// runner's ordered collector — not this package — remains the single
// authority on commit order.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync" //lint:allow nondeterminism "the coordinator is daemon scheduling plumbing; cell values are content-deterministic, so scheduling order cannot change any merged byte"
	"time"
)

// ErrUnknownWorker is returned for requests naming a worker the registry
// has dropped (TTL expiry or coordinator restart); the HTTP layer maps
// it to 404 and the worker answers by re-registering.
var ErrUnknownWorker = errors.New("cluster: unknown worker")

// ErrBadWorker rejects a registration whose capabilities are
// incompatible with this coordinator (protocol or engine-schema
// mismatch).
var ErrBadWorker = errors.New("cluster: incompatible worker")

// Config parameterizes a Coordinator. The zero value is usable: every
// field has a working default.
type Config struct {
	// LeaseTimeout is how long a leased task may go unheartbeated before
	// it is reassigned (default DefaultLeaseTimeout).
	LeaseTimeout time.Duration
	// WorkerTTL is how long a worker may go silent before it is dropped
	// (default DefaultWorkerTTL).
	WorkerTTL time.Duration
	// LeaseWait bounds the server-side long poll of Lease (default
	// DefaultLeaseWait).
	LeaseWait time.Duration
	// EngineSchema is the sim engine schema this coordinator requires of
	// its workers (sim.EngineSchemaVersion in production; tests may use
	// anything). Workers reporting a different value are rejected.
	EngineSchema int
	// Now supplies the scheduler's clock; tests inject a fake to drive
	// lease and TTL expiry deterministically. Defaults to the wall
	// clock, which never reaches any serialized document — it only
	// orders expiry decisions.
	Now func() time.Time
}

// workerState is the registry record of one live worker.
type workerState struct {
	id        string
	info      WorkerInfo
	lastSeen  time.Time
	leased    map[string]bool
	completed int64
}

// taskState is one dispatched cell moving through pending → leased →
// completed. A canceled task stays in the table (completed, with no
// waiter) so a late report is recognized instead of erroring.
type taskState struct {
	task Task
	// seq is the dispatch order; the pending queue stays sorted by it.
	seq       int64
	leasedTo  string
	deadline  time.Time
	completed bool
	value     json.RawMessage
	err       string
	// done closes when the task completes; DispatchCell waits on it.
	done chan struct{}
}

// Coordinator schedules dispatched cells across registered workers.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex //lint:allow nondeterminism "guards the scheduler tables; see package doc"
	workers map[string]*workerState
	tasks   map[string]*taskState
	// pending holds the unleased tasks in dispatch order; entries that
	// completed while queued (canceled, or reported late) are dropped
	// lazily when they reach the head.
	pending    []*taskState
	nextWorker int64
	nextTask   int64
	// wake is closed (and replaced) whenever the pending queue grows, so
	// long-polling leases re-check.
	wake chan struct{}

	dispatched     int64
	completedCount int64
	reassigned     int64
	expiredWorkers int64
	lateResults    int64
	registered     int64
}

// NewCoordinator builds a Coordinator, applying Config defaults.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = DefaultWorkerTTL
	}
	if cfg.LeaseWait <= 0 {
		cfg.LeaseWait = DefaultLeaseWait
	}
	if cfg.Now == nil {
		cfg.Now = func() time.Time {
			return time.Now() //lint:allow nondeterminism "scheduler clock for lease/TTL expiry only; never serialized, never reaches a result"
		}
	}
	return &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		tasks:   make(map[string]*taskState),
		wake:    make(chan struct{}),
	}
}

// Register admits a worker, assigning its ID. Incompatible workers
// (wrong protocol or engine schema) are rejected with ErrBadWorker so a
// mixed-version cluster fails loudly at startup, not subtly at merge.
func (c *Coordinator) Register(info WorkerInfo) (RegisterResponse, error) {
	if info.Proto != ProtoVersion {
		return RegisterResponse{}, fmt.Errorf("%w: protocol %d, coordinator speaks %d", ErrBadWorker, info.Proto, ProtoVersion)
	}
	if info.EngineSchema != c.cfg.EngineSchema {
		return RegisterResponse{}, fmt.Errorf("%w: engine schema %d, coordinator requires %d", ErrBadWorker, info.EngineSchema, c.cfg.EngineSchema)
	}
	if info.Slots <= 0 {
		info.Slots = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Now())
	c.nextWorker++
	id := fmt.Sprintf("w-%06d", c.nextWorker)
	c.workers[id] = &workerState{
		id:       id,
		info:     info,
		lastSeen: c.cfg.Now(),
		leased:   make(map[string]bool),
	}
	c.registered++
	return RegisterResponse{
		WorkerID:       id,
		LeaseTimeoutMS: c.cfg.LeaseTimeout.Milliseconds(),
		LeaseWaitMS:    c.cfg.LeaseWait.Milliseconds(),
	}, nil
}

// DispatchCell enqueues one cell and blocks until a worker reports it or
// ctx ends. It matches the service-side dispatcher signature
// structurally, so the service package can depend on an interface it
// defines itself and never import this package. The fingerprint is
// unused: the coordinator's cache answers by fingerprint before dispatch,
// and workers keep no cache. The parameter stays because
// service.CellDispatcher carries it, and the perf harness's timing
// dispatcher implements that interface by forwarding here.
func (c *Coordinator) DispatchCell(ctx context.Context, job string, spec []byte, key, _ string) ([]byte, error) {
	c.mu.Lock()
	c.nextTask++
	id := fmt.Sprintf("t-%06d", c.nextTask)
	st := &taskState{
		task: Task{
			ID:   id,
			Job:  job,
			Key:  key,
			Spec: json.RawMessage(spec),
		},
		seq:  c.nextTask,
		done: make(chan struct{}),
	}
	c.tasks[id] = st
	c.pending = append(c.pending, st)
	c.dispatched++
	c.wakeLocked()
	c.mu.Unlock()

	select {
	case <-st.done:
	case <-ctx.Done():
		c.cancelTask(id)
		return nil, ctx.Err()
	}
	c.mu.Lock()
	value, errMsg := st.value, st.err
	delete(c.tasks, id) // completed and collected; forget it
	c.mu.Unlock()
	if errMsg != "" {
		return nil, errors.New(errMsg)
	}
	return value, nil
}

// cancelTask forgets an abandoned dispatch; a worker's eventual report
// for it is counted late (unknown task) instead of failing.
func (c *Coordinator) cancelTask(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.tasks[id]
	if !ok {
		return
	}
	if st.leasedTo != "" {
		if w := c.workers[st.leasedTo]; w != nil {
			delete(w.leased, id)
		}
	}
	if !st.completed {
		st.completed = true
		close(st.done)
	}
	delete(c.tasks, id)
}

// Lease hands the calling worker its next task, long-polling up to the
// configured lease wait. A nil task with nil error means "nothing for
// you right now; ask again". Any worker under its slot limit gets the
// oldest pending task: a repeated cell never gets this far, because the
// coordinator's runner serves it from its own memo cache before it
// dispatches.
func (c *Coordinator) Lease(ctx context.Context, workerID string) (*Task, error) {
	deadline := c.cfg.Now().Add(c.cfg.LeaseWait)
	for {
		c.mu.Lock()
		now := c.cfg.Now()
		c.expireLocked(now)
		w, ok := c.workers[workerID]
		if !ok {
			c.mu.Unlock()
			return nil, ErrUnknownWorker
		}
		w.lastSeen = now
		if t := c.leaseLocked(w, now); t != nil {
			c.mu.Unlock()
			return t, nil
		}
		wake := c.wake
		c.mu.Unlock()
		remain := deadline.Sub(now)
		if remain <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
			return nil, nil
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}

// leaseLocked pops the oldest pending task for w, leasing it, unless w
// is at its slot limit.
func (c *Coordinator) leaseLocked(w *workerState, now time.Time) *Task {
	if len(w.leased) >= w.info.Slots {
		return nil
	}
	for len(c.pending) > 0 {
		st := c.pending[0]
		c.pending = c.pending[1:]
		if st.completed {
			continue
		}
		st.leasedTo = w.id
		st.deadline = now.Add(c.cfg.LeaseTimeout)
		w.leased[st.task.ID] = true
		t := st.task
		return &t
	}
	return nil
}

// requeueLocked takes back a lease that expired (worker dead or
// stalled) and returns its task to the pending queue at its dispatch
// position, so the oldest cell — the one the runner's ordered collector
// commits next — is leased again first.
func (c *Coordinator) requeueLocked(st *taskState) {
	if w := c.workers[st.leasedTo]; w != nil {
		delete(w.leased, st.task.ID)
	}
	st.leasedTo = ""
	i := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].seq > st.seq })
	c.pending = append(c.pending, nil)
	copy(c.pending[i+1:], c.pending[i:])
	c.pending[i] = st
	c.reassigned++
	c.wakeLocked()
}

// Report commits a worker's result for a leased task. Results are
// content-deterministic, so a live task accepts a report from any
// worker — even one whose lease already expired (counted late). Reports
// against completed or forgotten tasks are acknowledged and dropped.
func (c *Coordinator) Report(workerID, taskID string, value json.RawMessage, errMsg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.expireLocked(now)
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = now
	} else {
		return ErrUnknownWorker
	}
	st, ok := c.tasks[taskID]
	if !ok || st.completed {
		c.lateResults++
		return nil
	}
	if st.leasedTo != workerID {
		c.lateResults++
	}
	if st.leasedTo != "" {
		if w := c.workers[st.leasedTo]; w != nil {
			delete(w.leased, taskID)
		}
		st.leasedTo = ""
	}
	st.completed = true
	st.value = value
	st.err = errMsg
	c.completedCount++
	c.workers[workerID].completed++
	close(st.done)
	return nil
}

// Heartbeat renews the worker's registration and the leases it lists.
func (c *Coordinator) Heartbeat(workerID string, tasks []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.expireLocked(now)
	w, ok := c.workers[workerID]
	if !ok {
		return ErrUnknownWorker
	}
	w.lastSeen = now
	for _, id := range tasks {
		if st, ok := c.tasks[id]; ok && st.leasedTo == workerID && !st.completed {
			st.deadline = now.Add(c.cfg.LeaseTimeout)
		}
	}
	return nil
}

// expireLocked is the lazy failure detector, run under the lock on every
// entry point: workers silent past the TTL are dropped and their leases
// requeued; leases past their deadline are requeued even when the
// worker itself is still live (a stalled cell must not strand a sweep).
func (c *Coordinator) expireLocked(now time.Time) {
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.cfg.WorkerTTL {
			for taskID := range w.leased {
				if st, ok := c.tasks[taskID]; ok && !st.completed && st.leasedTo == id {
					c.requeueLocked(st)
				}
			}
			delete(c.workers, id)
			c.expiredWorkers++
		}
	}
	for _, st := range c.tasks {
		if st.leasedTo != "" && !st.completed && now.After(st.deadline) {
			c.requeueLocked(st)
		}
	}
}

// wakeLocked wakes all long-polling leases (the event-log broadcast
// pattern: close the channel, replace it).
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Workers snapshots the registry, sorted by worker ID so the serialized
// listing is stable.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Now())
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]WorkerStatus, 0, len(ids))
	for _, id := range ids {
		w := c.workers[id]
		out = append(out, WorkerStatus{
			ID:        w.id,
			Info:      w.info,
			Leased:    len(w.leased),
			Completed: w.completed,
		})
	}
	return out
}

// Stats snapshots the scheduler counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Now())
	pending, leased := 0, 0
	for _, st := range c.tasks {
		switch {
		case st.completed:
		case st.leasedTo != "":
			leased++
		default:
			pending++
		}
	}
	return Stats{
		WorkersLive:    len(c.workers),
		TasksPending:   pending,
		TasksLeased:    leased,
		Dispatched:     c.dispatched,
		Completed:      c.completedCount,
		Reassigned:     c.reassigned,
		WorkersExpired: c.expiredWorkers,
		LateResults:    c.lateResults,
		Registered:     c.registered,
	}
}
