// worker.go is the worker half of the federation: a pull loop that
// registers with the coordinator, long-polls leases across N slots,
// computes each cell through an injected compute function (cmd/nvmd
// wires service.ComputeCell with no cache of its own), reports
// canonical JSON results, and heartbeats to keep its registration and
// leases alive. Everything recovers by re-registering: a 404 from the
// coordinator means "I forgot you" (TTL expiry or restart) and the
// worker simply introduces itself again — leases it still held become
// late results, which the coordinator accepts or drops safely because
// cell values are content-deterministic.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync" //lint:allow nondeterminism "worker slots are daemon plumbing; each cell's value is a pure function of its spec"
	"time"
)

// ComputeFunc computes one leased cell, returning the canonical JSON of
// its value. It must be deterministic in the task alone — the whole
// merge-equivalence argument rests on that.
type ComputeFunc func(ctx context.Context, t Task) (json.RawMessage, error)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coordinator is the coordinator base URL (e.g. http://host:port).
	Coordinator string
	// Compute computes leased cells. Required.
	Compute ComputeFunc
	// Info is the capability record sent at registration; Proto is
	// stamped by RunWorker, and Slots defaults to 1.
	Info WorkerInfo
	// Client issues the HTTP requests (default: a fresh http.Client; the
	// lease long-poll is bounded per request, so no global timeout).
	Client *http.Client
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
}

// worker is the connection state shared by the slot and heartbeat
// loops.
type worker struct {
	opts WorkerOptions

	mu sync.Mutex //lint:allow nondeterminism "guards the worker's connection state (id, active leases); see package doc"
	id string
	// active tracks leased task IDs for heartbeat renewal.
	active       map[string]bool
	leaseTimeout time.Duration
	leaseWait    time.Duration
}

// RunWorker registers with the coordinator and serves leases until ctx
// ends. It returns ctx.Err() on shutdown and a terminal error only when
// the coordinator rejects the worker as incompatible.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Compute == nil {
		return fmt.Errorf("cluster: WorkerOptions.Compute is required")
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Info.Slots <= 0 {
		opts.Info.Slots = 1
	}
	opts.Info.Proto = ProtoVersion
	w := &worker{opts: opts, active: make(map[string]bool)}
	if err := w.register(ctx); err != nil {
		return err
	}

	var wg sync.WaitGroup //lint:allow nondeterminism "slot/heartbeat lifecycle tracking; every loop exits on ctx.Done"
	wg.Add(1)
	go func() { //lint:allow nondeterminism "heartbeat loop of the worker runtime; renews registration and leases"
		defer wg.Done()
		w.heartbeatLoop(ctx)
	}()
	for i := 0; i < opts.Info.Slots; i++ {
		wg.Add(1)
		go func() { //lint:allow nondeterminism "lease/compute/report slot loop of the worker runtime"
			defer wg.Done()
			w.slotLoop(ctx)
		}()
	}
	wg.Wait() //lint:allow ctxprop "bounded: every loop above returns when ctx is done, so this wait ends with the context"
	return ctx.Err()
}

// register introduces the worker, retrying transient failures with
// backoff until ctx ends; incompatibility (409) is terminal.
func (w *worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		var resp RegisterResponse
		status, err := w.post(ctx, "/v1/cluster/register", RegisterRequest{Info: w.opts.Info}, &resp)
		switch {
		case err == nil && status == http.StatusOK:
			w.mu.Lock()
			w.id = resp.WorkerID
			w.leaseTimeout = time.Duration(resp.LeaseTimeoutMS) * time.Millisecond
			w.leaseWait = time.Duration(resp.LeaseWaitMS) * time.Millisecond
			w.mu.Unlock()
			w.opts.Logf("cluster: registered as %s", resp.WorkerID)
			return nil
		case err == nil && status == http.StatusConflict:
			return fmt.Errorf("cluster: coordinator rejected worker as incompatible")
		}
		if err != nil {
			w.opts.Logf("cluster: register: %v (retrying)", err)
		} else {
			w.opts.Logf("cluster: register: HTTP %d (retrying)", status)
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// reRegister refreshes the worker's identity after a 404, deduplicating
// concurrent slot failures: only the first caller for a given stale ID
// actually re-registers.
func (w *worker) reRegister(ctx context.Context, staleID string) error {
	w.mu.Lock()
	current := w.id
	w.mu.Unlock()
	if current != staleID {
		return nil // someone already re-registered
	}
	return w.register(ctx)
}

// slotLoop is one lease slot: lease, compute, report, forever.
func (w *worker) slotLoop(ctx context.Context) {
	for ctx.Err() == nil {
		id := w.currentID()
		t, status, err := w.lease(ctx, id)
		switch {
		case ctx.Err() != nil:
			return
		case status == http.StatusNotFound:
			if w.reRegister(ctx, id) != nil {
				return
			}
			continue
		case err != nil || t == nil:
			if err != nil {
				w.opts.Logf("cluster: lease: %v", err)
				w.pause(ctx, 200*time.Millisecond)
			}
			continue
		}
		w.track(t.ID, true)
		val, cerr := w.opts.Compute(ctx, *t)
		w.track(t.ID, false)
		if ctx.Err() != nil {
			return // shutdown mid-cell: the lease expires and the cell is reassigned
		}
		req := ResultRequest{TaskID: t.ID, Value: val}
		if cerr != nil {
			req.Value, req.Error = nil, cerr.Error()
		}
		w.report(ctx, req)
	}
}

// lease long-polls the coordinator for one task; a 204 means none.
func (w *worker) lease(ctx context.Context, id string) (*Task, int, error) {
	w.mu.Lock()
	wait := w.leaseWait
	w.mu.Unlock()
	if wait <= 0 {
		wait = DefaultLeaseWait
	}
	// Bound the poll at twice the server's hold so a hung coordinator
	// surfaces as an error instead of a stuck slot.
	lctx, cancel := context.WithTimeout(ctx, 2*wait)
	defer cancel()
	var t Task
	status, err := w.post(lctx, "/v1/cluster/lease", LeaseRequest{WorkerID: id}, &t)
	if err != nil || status != http.StatusOK {
		return nil, status, err
	}
	return &t, status, nil
}

// report delivers a result, retrying transient failures and following
// the re-register path on 404 — the coordinator accepts results from
// any live worker, so re-identifying mid-report is safe.
func (w *worker) report(ctx context.Context, req ResultRequest) {
	for attempt := 0; attempt < 5 && ctx.Err() == nil; attempt++ {
		req.WorkerID = w.currentID()
		status, err := w.post(ctx, "/v1/cluster/result", req, nil)
		switch {
		case err == nil && status == http.StatusOK:
			return
		case err == nil && status == http.StatusNotFound:
			if w.reRegister(ctx, req.WorkerID) != nil {
				return
			}
		default:
			w.opts.Logf("cluster: report %s: status=%d err=%v", req.TaskID, status, err)
			w.pause(ctx, 200*time.Millisecond)
		}
	}
}

// heartbeatLoop renews the registration and active leases at a third of
// the lease timeout, re-registering when forgotten.
func (w *worker) heartbeatLoop(ctx context.Context) {
	for ctx.Err() == nil {
		w.mu.Lock()
		period := w.leaseTimeout / 3
		w.mu.Unlock()
		if period <= 0 {
			period = DefaultLeaseTimeout / 3
		}
		if period < 50*time.Millisecond {
			period = 50 * time.Millisecond
		}
		if !w.pause(ctx, period) {
			return
		}
		id := w.currentID()
		req := HeartbeatRequest{WorkerID: id, Tasks: w.activeTasks()}
		status, err := w.post(ctx, "/v1/cluster/heartbeat", req, nil)
		if err == nil && status == http.StatusNotFound {
			if w.reRegister(ctx, id) != nil {
				return
			}
		} else if err != nil {
			w.opts.Logf("cluster: heartbeat: %v", err)
		}
	}
}

// currentID snapshots the worker's registration ID.
func (w *worker) currentID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// track records (or clears) an active lease for heartbeat renewal.
func (w *worker) track(taskID string, on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if on {
		w.active[taskID] = true
	} else {
		delete(w.active, taskID)
	}
}

// activeTasks snapshots the active lease IDs.
func (w *worker) activeTasks() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.active))
	for id := range w.active {
		out = append(out, id)
	}
	return out
}

// pause sleeps d, selectably on ctx; it reports whether the full pause
// elapsed (false means ctx ended).
func (w *worker) pause(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		timer.Stop()
		return false
	}
}

// post issues one JSON POST against the coordinator, decoding a 200
// response into out (when non-nil) and returning the HTTP status.
func (w *worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, fmt.Errorf("cluster: encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("cluster: request %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: decode %s: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}
