package service_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"maxwe"
	"maxwe/internal/service"
	"maxwe/internal/service/client"
)

// BenchmarkServiceSubmitThroughput measures a full job round trip through
// the HTTP API: submit a one-cell job, wait for completion, fetch the
// result. The cell itself is tiny (100 user writes), so the number is
// dominated by service overhead — queueing, checkpointing, persistence
// and the event stream — not by simulation time.
func BenchmarkServiceSubmitThroughput(b *testing.B) {
	m, err := service.NewManager(service.Config{DataDir: b.TempDir(), JobWorkers: 2})
	if err != nil {
		b.Fatalf("NewManager: %v", err)
	}
	m.Start()
	defer m.Close()
	srv := httptest.NewServer(service.NewHandler(m))
	defer srv.Close()
	c := client.New(srv.URL)
	ctx := context.Background()

	spec := service.JobSpec{
		Kind: service.KindCells,
		Cells: []service.CellSpec{{
			Key: "bench",
			Config: maxwe.Config{
				Regions: 8, LinesPerRegion: 4, MeanEndurance: 50,
				VariationQ: 2, LinearProfile: true,
				Scheme: "none", Attack: "uaa", Psi: 32,
				MaxUserWrites: 100, Seed: 1,
			},
		}},
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			b.Fatalf("Submit: %v", err)
		}
		final, err := c.Wait(ctx, st.ID)
		if err != nil {
			b.Fatalf("Wait: %v", err)
		}
		if final.State != service.StateDone {
			b.Fatalf("job ended %s: %s", final.State, final.Error)
		}
		if _, err := c.Result(ctx, st.ID); err != nil {
			b.Fatalf("Result: %v", err)
		}
	}
}

// benchSweepSpec is the eight-cell sweep both BenchmarkFederatedSweep
// variants run. Cells are tiny, so the numbers measure orchestration
// overhead — local runner dispatch vs coordinator/worker HTTP round
// trips — not simulation time.
func benchSweepSpec() service.JobSpec {
	cells := make([]service.CellSpec, 8)
	for i := range cells {
		cells[i] = service.CellSpec{
			Key: fmt.Sprintf("bench-%d", i),
			Config: maxwe.Config{
				Regions: 8, LinesPerRegion: 4, MeanEndurance: 50,
				VariationQ: 2, LinearProfile: true,
				Scheme: "none", Attack: "uaa", Psi: 32,
				MaxUserWrites: 100 + int64(i), Seed: 1,
			},
		}
	}
	return service.JobSpec{Kind: service.KindCells, Cells: cells, Parallelism: 4}
}

// benchSweep submits spec b.N times and waits each job to completion.
func benchSweep(b *testing.B, m *service.Manager, spec service.JobSpec) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := m.Submit(spec)
		if err != nil {
			b.Fatalf("Submit: %v", err)
		}
		if final := waitState(b, m, st.ID); final.State != service.StateDone {
			b.Fatalf("job ended %s: %s", final.State, final.Error)
		}
	}
}

// BenchmarkFederatedSweep runs the same eight-cell sweep through the
// single-node runner and through an in-process coordinator plus two
// workers, so the bench table carries a direct row-vs-row reading of
// federation's per-sweep dispatch cost.
func BenchmarkFederatedSweep(b *testing.B) {
	b.Run("single-node", func(b *testing.B) {
		m, err := service.NewManager(service.Config{DataDir: b.TempDir(), JobWorkers: 1})
		if err != nil {
			b.Fatalf("NewManager: %v", err)
		}
		m.Start()
		defer m.Close()
		benchSweep(b, m, benchSweepSpec())
	})
	b.Run("federated-2-workers", func(b *testing.B) {
		m, coord, srv := startFedManager(b, b.TempDir())
		for w := 0; w < 2; w++ {
			startFedWorker(b, srv.URL, fmt.Sprintf("bench-%d", w), 2, localCompute)
		}
		waitWorkers(b, coord, 2)
		spec := benchSweepSpec()
		spec.Federated = true
		benchSweep(b, m, spec)
	})
}
