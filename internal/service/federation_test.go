// Federation cross-validation: a federated sweep dispatched over the
// cluster layer must be indistinguishable from a single-node run — same
// result bytes, same committed event sequence, same checkpoint
// fingerprint — at any worker count, including a worker killed mid-cell,
// because the coordinator commits worker results through the same
// ordered runner a local sweep uses.
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"maxwe/internal/cluster"
	"maxwe/internal/service"
	"maxwe/internal/service/client"
	"maxwe/internal/sim"
)

// fedSpec is a six-cell custom sweep, each cell a bounded deterministic
// lifetime, wide enough to spread across four workers.
func fedSpec() service.JobSpec {
	cells := make([]service.CellSpec, 6)
	for i := range cells {
		cells[i] = boundedCell(fmt.Sprintf("cell-%d", i), int64(100_000+50_000*i))
	}
	return service.JobSpec{Kind: service.KindCells, Cells: cells, Parallelism: 4}
}

// startFedManager builds a coordinator-backed manager and serves the job
// API plus the /v1/cluster surface the way nvmd coordinator composes
// them. The short lease timeout keeps the kill-mid-cell test fast.
func startFedManager(t testing.TB, dir string) (*service.Manager, *cluster.Coordinator, *httptest.Server) {
	t.Helper()
	return startCoordinator(t, service.Config{DataDir: dir})
}

// startCoordinator is startFedManager over a caller-built manager
// config (Dispatcher is filled in).
func startCoordinator(t testing.TB, cfg service.Config) (*service.Manager, *cluster.Coordinator, *httptest.Server) {
	t.Helper()
	coord := cluster.NewCoordinator(cluster.Config{
		LeaseTimeout: 500 * time.Millisecond,
		WorkerTTL:    1500 * time.Millisecond,
		LeaseWait:    20 * time.Millisecond,
		EngineSchema: sim.EngineSchemaVersion,
	})
	cfg.Dispatcher = coord
	m, err := service.NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	m.Start()
	t.Cleanup(m.Close)
	mux := http.NewServeMux()
	mux.Handle("/v1/cluster/", cluster.NewHandler(coord, nil))
	mux.Handle("/", service.NewHandler(m))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return m, coord, srv
}

// localCompute is the worker compute function cmd/nvmd wires: the same
// engine a local sweep runs, with no cache of its own.
func localCompute(ctx context.Context, task cluster.Task) (json.RawMessage, error) {
	v, err := service.ComputeCell(ctx, task.Spec, task.Key, nil)
	return json.RawMessage(v), err
}

// startFedWorker runs an in-process worker against the coordinator URL
// and returns its kill switch. Cleanup kills it and waits for exit.
func startFedWorker(t testing.TB, url, name string, slots int, compute cluster.ComputeFunc) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = cluster.RunWorker(ctx, cluster.WorkerOptions{
			Coordinator: url,
			Compute:     compute,
			Info: cluster.WorkerInfo{
				Name: name, Slots: slots,
				EngineSchema: sim.EngineSchemaVersion,
			},
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

// waitWorkers polls until the coordinator sees n registered workers.
func waitWorkers(t testing.TB, coord *cluster.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if len(coord.Workers()) >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("coordinator never saw %d workers", n)
}

// collectEvents follows a job's event stream to its terminal state.
func collectEvents(t *testing.T, url, id string) []service.Event {
	t.Helper()
	var events []service.Event
	err := client.New(url).Events(context.Background(), id, func(ev service.Event) error {
		events = append(events, ev)
		if ev.Type == "state" && ev.State.Terminal() {
			return io.EOF
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Events(%s): %v", id, err)
	}
	return events
}

// committedProjection reduces an event stream to its deterministic core:
// state transitions and cell completions, which the runner commits in
// sweep order regardless of parallelism or worker count. "start" and
// "retry" events fire from concurrent workers in scheduler order, so
// they (and the absolute sequence numbers they shift) are excluded.
func committedProjection(events []service.Event) []service.Event {
	var out []service.Event
	for _, ev := range events {
		if ev.Type == "cell" && (ev.Status == "start" || ev.Status == "retry") {
			continue
		}
		ev.Seq = 0
		out = append(out, ev)
	}
	return out
}

// runReference runs spec on a plain single-node manager and returns its
// result bytes and committed event projection.
func runReference(t *testing.T, spec service.JobSpec) ([]byte, []service.Event) {
	t.Helper()
	m := newManager(t, t.TempDir(), 1)
	m.Start()
	t.Cleanup(m.Close)
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(srv.Close)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(reference): %v", err)
	}
	events := collectEvents(t, srv.URL, st.ID)
	if final := waitState(t, m, st.ID); final.State != service.StateDone {
		t.Fatalf("reference job ended %s: %s", final.State, final.Error)
	}
	raw, err := m.Result(st.ID)
	if err != nil {
		t.Fatalf("Result(reference): %v", err)
	}
	return raw, committedProjection(events)
}

func eventsEqual(a, b []service.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFederatedByteIdenticalAcrossWorkerCounts pins the federation
// determinism guarantee: the merged result document and the committed
// event sequence of a federated sweep are byte-identical to the
// single-node run at 1, 2 and 4 workers.
func TestFederatedByteIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := fedSpec()
	want, wantEvents := runReference(t, spec)

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m, coord, srv := startFedManager(t, t.TempDir())
			for w := 0; w < workers; w++ {
				startFedWorker(t, srv.URL, fmt.Sprintf("fed-%d", w), 2, localCompute)
			}

			fspec := spec
			fspec.Federated = true
			st, err := client.New(srv.URL).SubmitFederated(context.Background(), fspec)
			if err != nil {
				t.Fatalf("SubmitFederated: %v", err)
			}
			events := collectEvents(t, srv.URL, st.ID)
			if final := waitState(t, m, st.ID); final.State != service.StateDone {
				t.Fatalf("federated job ended %s: %s", final.State, final.Error)
			}
			got, err := m.Result(st.ID)
			if err != nil {
				t.Fatalf("Result: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("federated result differs from single-node run:\n--- single-node ---\n%s\n--- %d workers ---\n%s", want, workers, got)
			}
			if proj := committedProjection(events); !eventsEqual(proj, wantEvents) {
				t.Fatalf("committed event sequence differs from single-node run:\nwant %+v\ngot  %+v", wantEvents, proj)
			}
			if s := coord.Stats(); s.Completed != int64(len(spec.Cells)) {
				t.Fatalf("coordinator completed %d cells, want %d (did some cells run locally?)", s.Completed, len(spec.Cells))
			}
		})
	}
}

// TestFederatedSurvivesWorkerKilledMidCell kills a worker while it holds
// a leased cell: the lease expires, a surviving worker recomputes the
// cell, and the merged result is still byte-identical to single-node.
func TestFederatedSurvivesWorkerKilledMidCell(t *testing.T) {
	spec := fedSpec()
	want, wantEvents := runReference(t, spec)

	m, coord, srv := startFedManager(t, t.TempDir())

	// The victim worker wedges on its first leased cell (holding the
	// lease, never reporting) until killed. It joins alone, so once the
	// job is submitted it is guaranteed to lease a cell before the
	// survivor exists.
	// Buffered so the first signal is never dropped even if the victim
	// leases before this goroutine reaches the receive below.
	victimBusy := make(chan struct{}, 1)
	victimKill := startFedWorker(t, srv.URL, "victim", 1,
		func(ctx context.Context, task cluster.Task) (json.RawMessage, error) {
			select {
			case victimBusy <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return nil, ctx.Err()
		})
	waitWorkers(t, coord, 1)

	fspec := spec
	fspec.Federated = true
	st, err := client.New(srv.URL).SubmitFederated(context.Background(), fspec)
	if err != nil {
		t.Fatalf("SubmitFederated: %v", err)
	}

	// Kill the victim only once it demonstrably holds a cell mid-compute,
	// then bring up the survivor: the victim's lease expires and its cell
	// goes back to the queue for the survivor.
	select {
	case <-victimBusy:
	case <-time.After(30 * time.Second):
		t.Fatal("victim worker never leased a cell")
	}
	victimKill()
	startFedWorker(t, srv.URL, "survivor", 2, localCompute)

	events := collectEvents(t, srv.URL, st.ID)
	if final := waitState(t, m, st.ID); final.State != service.StateDone {
		t.Fatalf("federated job ended %s: %s", final.State, final.Error)
	}
	got, err := m.Result(st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result after mid-cell worker death differs from single-node run:\n--- single-node ---\n%s\n--- survivor ---\n%s", want, got)
	}
	if proj := committedProjection(events); !eventsEqual(proj, wantEvents) {
		t.Fatalf("committed event sequence differs from single-node run:\nwant %+v\ngot  %+v", wantEvents, proj)
	}
	if s := coord.Stats(); s.Reassigned == 0 {
		t.Fatal("no lease was reassigned; the victim never held a cell when killed")
	}
}

// TestPeerCacheSecondSweepComputesNothingLocally pins the cache-peering
// guarantee: after daemon A runs a sweep, daemon B configured with A as
// its cache peer runs the identical sweep without computing a single
// cell locally — every cell arrives over the peer-fill path — and still
// serves byte-identical result bytes.
func TestPeerCacheSecondSweepComputesNothingLocally(t *testing.T) {
	spec := tinyFig7()

	// Daemon A: cache on, peer-fill endpoint mounted the way nvmd serve
	// exposes it.
	dirA := t.TempDir()
	mA, err := service.NewManager(service.Config{DataDir: dirA, CacheDir: filepath.Join(dirA, "cache")})
	if err != nil {
		t.Fatalf("NewManager(A): %v", err)
	}
	mA.Start()
	t.Cleanup(mA.Close)
	muxA := http.NewServeMux()
	muxA.Handle("POST /v1/cluster/cache/get", cluster.CacheHandler(mA.Cache()))
	muxA.Handle("/", service.NewHandler(mA))
	srvA := httptest.NewServer(muxA)
	t.Cleanup(srvA.Close)

	stA, err := mA.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(A): %v", err)
	}
	if final := waitState(t, mA, stA.ID); final.State != service.StateDone {
		t.Fatalf("job on A ended %s: %s", final.State, final.Error)
	}
	want, err := mA.Result(stA.ID)
	if err != nil {
		t.Fatalf("Result(A): %v", err)
	}

	// Daemon B: own empty cache, A as peer.
	dirB := t.TempDir()
	mB, err := service.NewManager(service.Config{
		DataDir:   dirB,
		CacheDir:  filepath.Join(dirB, "cache"),
		CachePeer: &cluster.CachePeer{URL: srvA.URL},
	})
	if err != nil {
		t.Fatalf("NewManager(B): %v", err)
	}
	mB.Start()
	t.Cleanup(mB.Close)

	stB, err := mB.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(B): %v", err)
	}
	if final := waitState(t, mB, stB.ID); final.State != service.StateDone {
		t.Fatalf("job on B ended %s: %s", final.State, final.Error)
	}
	got, err := mB.Result(stB.ID)
	if err != nil {
		t.Fatalf("Result(B): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer-filled result differs:\n--- A ---\n%s\n--- B ---\n%s", want, got)
	}

	cells := int64(2) // tinyFig7: 2 percents x 1 leveler
	stats := mB.CacheStats().Stats
	if stats.PeerHits != cells {
		t.Fatalf("B peer hits = %d, want %d (every cell should arrive over the peer-fill path)", stats.PeerHits, cells)
	}
	if stats.Misses != 0 {
		t.Fatalf("B cache misses = %d, want 0 — B computed cells locally despite a warm peer", stats.Misses)
	}

	// The per-peer counters surface on both observability endpoints.
	if cs := mB.CacheStats(); !cs.Enabled {
		t.Fatal("B reports cache disabled")
	}
	text, err := mB.MetricsSnapshot()
	if err != nil {
		t.Fatalf("MetricsSnapshot(B): %v", err)
	}
	if !strings.Contains(text, fmt.Sprintf("nvmd_cache_peer_hits_total %d", cells)) {
		t.Fatalf("metrics missing peer hit counter:\n%s", text)
	}
}

// TestCachedCoordinatorNeverRedispatchesARepeatedCell pins why the
// coordinator's memo cache is the one cache in front of dispatch: its
// runner looks every cell up before dispatching, so a federated job run
// a second time is served entirely from memory — no cell reaches a
// worker — with the same result bytes.
func TestCachedCoordinatorNeverRedispatchesARepeatedCell(t *testing.T) {
	dir := t.TempDir()
	m, coord, srv := startCoordinator(t, service.Config{DataDir: dir, CacheDir: filepath.Join(dir, "cache")})
	startFedWorker(t, srv.URL, "fed-0", 2, localCompute)

	spec := fedSpec()
	spec.Federated = true
	cells := int64(len(spec.Cells))
	// run returns the job's result with its ID blanked, the one field
	// that differs between two submissions of the same spec.
	run := func() []byte {
		t.Helper()
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if final := waitState(t, m, st.ID); final.State != service.StateDone {
			t.Fatalf("federated job ended %s: %s", final.State, final.Error)
		}
		raw, err := m.Result(st.ID)
		if err != nil {
			t.Fatalf("Result: %v", err)
		}
		return bytes.Replace(raw, []byte(st.ID), nil, 1)
	}

	first := run()
	if d := coord.Stats().Dispatched; d != cells {
		t.Fatalf("first run dispatched %d cells, want %d", d, cells)
	}
	before := m.CacheStats().Stats
	second := run()
	if d := coord.Stats().Dispatched; d != cells {
		t.Fatalf("second run dispatched %d more cells; a cached coordinator must dispatch none", d-cells)
	}
	after := m.CacheStats().Stats
	if hits := after.MemHits - before.MemHits; hits != cells {
		t.Fatalf("second run took %d memory hits, want %d", hits, cells)
	}
	if after.Misses != before.Misses {
		t.Fatalf("second run missed the cache %d times", after.Misses-before.Misses)
	}
	if !bytes.Equal(second, first) {
		t.Fatalf("cached rerun differs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}
