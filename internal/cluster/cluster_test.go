package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync" //lint:allow nondeterminism "test harness coordination"
	"testing"
	"time"
)

// fakeClock is a mutable test clock for driving lease and TTL expiry
// without real waiting.
type fakeClock struct {
	mu  sync.Mutex //lint:allow nondeterminism "test clock"
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func testInfo() WorkerInfo {
	return WorkerInfo{Slots: 4, EngineSchema: 7, Proto: ProtoVersion}
}

func testConfig(clk *fakeClock) Config {
	return Config{
		LeaseTimeout: 10 * time.Second,
		WorkerTTL:    30 * time.Second,
		LeaseWait:    50 * time.Millisecond,
		EngineSchema: 7,
		Now:          clk.Now,
	}
}

func TestRegisterRejectsIncompatibleWorkers(t *testing.T) {
	c := NewCoordinator(testConfig(newFakeClock()))
	if _, err := c.Register(WorkerInfo{Slots: 1, EngineSchema: 7, Proto: ProtoVersion + 1}); err == nil {
		t.Fatal("wrong protocol version accepted")
	}
	if _, err := c.Register(WorkerInfo{Slots: 1, EngineSchema: 8, Proto: ProtoVersion}); err == nil {
		t.Fatal("wrong engine schema accepted")
	}
	if _, err := c.Register(testInfo()); err != nil {
		t.Fatalf("compatible worker rejected: %v", err)
	}
}

// dispatchAsync launches DispatchCell in a goroutine, returning a
// channel carrying its outcome.
func dispatchAsync(ctx context.Context, c *Coordinator, key, fp string) chan error {
	done := make(chan error, 1)
	go func() {
		val, err := c.DispatchCell(ctx, "job-1", []byte(`{}`), key, fp)
		if err == nil && string(val) != `{"cell":"`+key+`"}` {
			err = fmt.Errorf("wrong value %q for %s", val, key)
		}
		done <- err
	}()
	return done
}

// waitDispatched polls until n cells have reached the coordinator, so a
// test leases against a known queue instead of racing dispatchAsync.
func waitDispatched(t *testing.T, c *Coordinator, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Dispatched < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d cells dispatched", c.Stats().Dispatched, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustLease leases one task for worker id, failing the test on none.
func mustLease(t *testing.T, c *Coordinator, id string) *Task {
	t.Helper()
	task, err := c.Lease(context.Background(), id)
	if err != nil || task == nil {
		t.Fatalf("worker %s got no lease: task=%v err=%v", id, task, err)
	}
	return task
}

// reportCell reports the canonical test value for task and waits for its
// dispatcher to return.
func reportCell(t *testing.T, c *Coordinator, id string, task *Task, done chan error) {
	t.Helper()
	if err := c.Report(id, task.ID, json.RawMessage(`{"cell":"`+task.Key+`"}`), ""); err != nil {
		t.Fatalf("report %s: %v", task.Key, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// The fingerprints fp-0 and fp-3 are ones rendezvous hashing over the
// worker IDs w-000001 and w-000002 gives to w-000001, so the two tests
// below fail under a scheduler that pins cells to a fingerprint owner.

func TestIdleWorkerLeasesWhileOtherIsAtSlotLimit(t *testing.T) {
	c := NewCoordinator(testConfig(newFakeClock()))
	one := testInfo()
	one.Slots = 1
	a, err := c.Register(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Register(one)
	if err != nil {
		t.Fatal(err)
	}
	done := map[string]chan error{
		"cell-0": dispatchAsync(context.Background(), c, "cell-0", "fp-0"),
		"cell-3": dispatchAsync(context.Background(), c, "cell-3", "fp-3"),
	}
	waitDispatched(t, c, 2)
	ta := mustLease(t, c, a.WorkerID)
	if extra, err := c.Lease(context.Background(), a.WorkerID); err != nil || extra != nil {
		t.Fatalf("worker at its slot limit leased %v (err %v)", extra, err)
	}
	tb := mustLease(t, c, b.WorkerID)
	if ta.Key == tb.Key {
		t.Fatalf("both workers leased %s", ta.Key)
	}
	reportCell(t, c, a.WorkerID, ta, done[ta.Key])
	reportCell(t, c, b.WorkerID, tb, done[tb.Key])
}

func TestSilentWorkerHoldsNoUnleasedCell(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	c := NewCoordinator(cfg)
	if _, err := c.Register(testInfo()); err != nil {
		t.Fatal(err)
	}
	b, err := c.Register(testInfo())
	if err != nil {
		t.Fatal(err)
	}
	done := dispatchAsync(context.Background(), c, "cell-0", "fp-0")
	waitDispatched(t, c, 1)
	// The first worker never polls again, but stays registered: the
	// clock stops short of its TTL.
	clk.Advance(cfg.WorkerTTL / 2)
	got := mustLease(t, c, b.WorkerID)
	if got.Key != "cell-0" {
		t.Fatalf("leased %s, want cell-0", got.Key)
	}
	if ws := c.Workers(); len(ws) != 2 {
		t.Fatalf("%d workers registered, want the silent one still listed", len(ws))
	}
	reportCell(t, c, b.WorkerID, got, done)
}

func TestRequeuedCellsLeaseInDispatchOrder(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	c := NewCoordinator(cfg)
	a, err := c.Register(testInfo())
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[string]chan error)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("cell-%d", i)
		done[key] = dispatchAsync(context.Background(), c, key, "fp-"+key)
		waitDispatched(t, c, int64(i+1))
	}
	for _, want := range []string{"cell-0", "cell-1"} {
		if got := mustLease(t, c, a.WorkerID); got.Key != want {
			t.Fatalf("first lease pass gave %s, want %s", got.Key, want)
		}
	}
	// Both leases lapse; the requeued cells go back ahead of cell-2.
	clk.Advance(cfg.LeaseTimeout + time.Second)
	b, err := c.Register(testInfo())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cell-0", "cell-1", "cell-2"} {
		got := mustLease(t, c, b.WorkerID)
		if got.Key != want {
			t.Fatalf("after expiry leased %s, want %s", got.Key, want)
		}
		reportCell(t, c, b.WorkerID, got, done[want])
	}
	if s := c.Stats(); s.Reassigned != 2 {
		t.Fatalf("Reassigned = %d, want 2", s.Reassigned)
	}
}

func TestLeaseExpiryReassignsToSurvivor(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	c := NewCoordinator(cfg)
	a, err := c.Register(testInfo())
	if err != nil {
		t.Fatal(err)
	}
	done := dispatchAsync(context.Background(), c, "cell", "fp-cell")
	task, err := c.Lease(context.Background(), a.WorkerID)
	if err != nil || task == nil {
		t.Fatalf("worker A got no lease: task=%v err=%v", task, err)
	}
	// A goes silent past its lease (but not its TTL); the task must
	// become grabbable by a newcomer.
	clk.Advance(cfg.LeaseTimeout + time.Second)
	b, err := c.Register(testInfo())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Lease(context.Background(), b.WorkerID)
	if err != nil || got == nil {
		t.Fatalf("survivor got no lease after expiry: task=%v err=%v", got, err)
	}
	if got.ID != task.ID || got.Key != "cell" {
		t.Fatalf("survivor leased %+v, want the expired task %s", got, task.ID)
	}
	if err := c.Report(b.WorkerID, got.ID, json.RawMessage(`{"cell":"cell"}`), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Reassigned != 1 {
		t.Fatalf("Reassigned = %d, want 1", s.Reassigned)
	}
	// The original holder's late report for the now-forgotten task is
	// acknowledged and dropped.
	if err := c.Report(a.WorkerID, task.ID, json.RawMessage(`{"cell":"stale"}`), ""); err != nil {
		t.Fatalf("late report errored: %v", err)
	}
	if s := c.Stats(); s.LateResults != 1 {
		t.Fatalf("LateResults = %d, want 1", s.LateResults)
	}
}

func TestDeadWorkerIsExpiredAndCellsRequeued(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	c := NewCoordinator(cfg)
	a, err := c.Register(testInfo())
	if err != nil {
		t.Fatal(err)
	}
	done := dispatchAsync(context.Background(), c, "cell", "fp-cell")
	if task, err := c.Lease(context.Background(), a.WorkerID); err != nil || task == nil {
		t.Fatalf("no lease: %v", err)
	}
	clk.Advance(cfg.WorkerTTL + time.Second)
	if ws := c.Workers(); len(ws) != 0 {
		t.Fatalf("dead worker still listed: %+v", ws)
	}
	if _, err := c.Lease(context.Background(), a.WorkerID); err != ErrUnknownWorker {
		t.Fatalf("dead worker's lease err = %v, want ErrUnknownWorker", err)
	}
	s := c.Stats()
	if s.WorkersExpired != 1 || s.TasksPending != 1 {
		t.Fatalf("stats after death = %+v, want 1 expired worker and 1 pending task", s)
	}
	b, err := c.Register(testInfo())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Lease(context.Background(), b.WorkerID)
	if err != nil || got == nil {
		t.Fatalf("survivor got no requeued task: %v", err)
	}
	if err := c.Report(b.WorkerID, got.ID, json.RawMessage(`{"cell":"cell"}`), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	c := NewCoordinator(cfg)
	a, err := c.Register(testInfo())
	if err != nil {
		t.Fatal(err)
	}
	done := dispatchAsync(context.Background(), c, "cell", "fp-cell")
	task, err := c.Lease(context.Background(), a.WorkerID)
	if err != nil || task == nil {
		t.Fatalf("no lease: %v", err)
	}
	for i := 0; i < 6; i++ {
		clk.Advance(cfg.LeaseTimeout / 2)
		if err := c.Heartbeat(a.WorkerID, []string{task.ID}); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if s := c.Stats(); s.Reassigned != 0 || s.TasksLeased != 1 {
		t.Fatalf("heartbeated lease expired anyway: %+v", s)
	}
	if err := c.Report(a.WorkerID, task.ID, json.RawMessage(`{"cell":"cell"}`), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDispatchCancelForgetsTask(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(testConfig(clk))
	a, err := c.Register(testInfo())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.DispatchCell(ctx, "job-1", []byte(`{}`), "cell", "fp")
		done <- err
	}()
	task, err := c.Lease(context.Background(), a.WorkerID)
	if err != nil || task == nil {
		t.Fatalf("no lease: %v", err)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("canceled dispatch returned %v", err)
	}
	if err := c.Report(a.WorkerID, task.ID, json.RawMessage(`{}`), ""); err != nil {
		t.Fatalf("report after cancel errored: %v", err)
	}
	if s := c.Stats(); s.LateResults != 1 {
		t.Fatalf("LateResults = %d, want 1", s.LateResults)
	}
}

func TestRunWorkerEndToEnd(t *testing.T) {
	c := NewCoordinator(Config{
		LeaseTimeout: 2 * time.Second,
		WorkerTTL:    10 * time.Second,
		LeaseWait:    100 * time.Millisecond,
		EngineSchema: 7,
	})
	srv := httptest.NewServer(NewHandler(c, nil))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(ctx, WorkerOptions{
			Coordinator: srv.URL,
			Info:        WorkerInfo{Slots: 2, EngineSchema: 7},
			Compute: func(_ context.Context, task Task) (json.RawMessage, error) {
				if task.Key == "boom" {
					return nil, fmt.Errorf("cell exploded")
				}
				return json.RawMessage(`{"cell":"` + task.Key + `"}`), nil
			},
		})
	}()

	var waits []chan error
	for i := 0; i < 8; i++ {
		waits = append(waits, dispatchAsync(ctx, c, fmt.Sprintf("k%d", i), fmt.Sprintf("fp%d", i)))
	}
	for i, wait := range waits {
		select {
		case err := <-wait:
			if err != nil {
				t.Fatalf("cell %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cell %d never completed", i)
		}
	}
	if _, err := c.DispatchCell(ctx, "job-1", []byte(`{}`), "boom", "fp-boom"); err == nil || err.Error() != "cell exploded" {
		t.Fatalf("failing cell returned %v, want the worker's error", err)
	}
	cancel()
	select {
	case err := <-workerDone:
		if err != context.Canceled {
			t.Fatalf("RunWorker returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWorker did not stop on ctx cancel")
	}
}

// memCache is a CacheSource test double.
type memCache map[string]string

func (m memCache) Get(key string) ([]byte, bool) {
	v, ok := m[key]
	return []byte(v), ok
}

func TestCachePeerFetch(t *testing.T) {
	c := NewCoordinator(Config{EngineSchema: 7})
	srv := httptest.NewServer(NewHandler(c, memCache{"cells/v1/abc": `{"x":1}`}))
	defer srv.Close()
	peer := &CachePeer{URL: srv.URL}
	if val, ok := peer.Fetch("cells/v1/abc"); !ok || string(val) != `{"x":1}` {
		t.Fatalf("Fetch hit = %q, %v", val, ok)
	}
	if _, ok := peer.Fetch("cells/v1/absent"); ok {
		t.Fatal("Fetch of absent key reported a hit")
	}
	srv.Close()
	if _, ok := peer.Fetch("cells/v1/abc"); ok {
		t.Fatal("Fetch against a dead peer reported a hit")
	}
}

func TestMetricsTextListsAllCounters(t *testing.T) {
	text := MetricsText(Stats{WorkersLive: 2, Dispatched: 5})
	for _, want := range []string{
		"nvmd_cluster_workers_live 2",
		"nvmd_cluster_dispatched_total 5",
		"nvmd_cluster_reassigned_total 0",
		"nvmd_cluster_late_results_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
}
