package runner

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkRunnerCellOverhead times the supervisor itself: a 36-cell
// sweep (the size of the Fig 7+8 grid) of cells that do no work, at one
// and two workers, so ns/op is the pool, collector and report cost of one
// sweep and ns/cell that cost per cell.
func BenchmarkRunnerCellOverhead(b *testing.B) {
	const n = 36
	cells := make([]Cell[int], n)
	for i := range cells {
		v := i
		cells[i] = Cell[int]{Key: fmt.Sprintf("cell-%02d", i),
			Run: func(context.Context) (int, error) { return v, nil }}
	}
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), Config{Parallelism: par}, cells)
				if err != nil || len(rep.Results) != n {
					b.Fatalf("sweep: %v, %d results", err, len(rep.Results))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
		})
	}
}
