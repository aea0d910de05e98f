package device

import (
	"testing"

	"maxwe/internal/endurance"
)

// FuzzCoreMatchesCounter runs arbitrary sequences of Write, ForceWear and
// Reset on a four-line core against a plain write-counter model. The first
// four bytes pick each line's endurance in 1..4, so sequences routinely
// write lines past wear-out; every later byte is one operation (its low
// three bits the kind, the rest the line). After every step the core's
// Writes, Remaining, Worn, WornLines and Total must match the model, and
// every Write and ForceWear must report the model's transition.
func FuzzCoreMatchesCounter(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 0, 0, 8, 8, 13, 7, 0})
	f.Add([]byte{3, 3, 3, 3, 5, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 6, 14, 22, 30, 0, 8, 16, 24, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		const lines = 4
		budget := make([]int64, lines)
		for i := range budget {
			budget[i] = 1
			if i < len(data) {
				budget[i] += int64(data[i] % 4)
			}
		}
		ops := data[min(len(data), lines):]
		c := newCore(endurance.FromLines(2, budget))

		writes := make([]int64, lines)
		worn := make([]bool, lines)
		var total int64
		wornLines := 0
		for step, op := range ops {
			line := int(op>>3) % lines
			switch kind := op & 7; {
			case kind < 5:
				writes[line]++
				total++
				want := !worn[line] && writes[line] >= budget[line]
				if want {
					worn[line] = true
					wornLines++
				}
				if got := c.Write(line); got != want {
					t.Fatalf("step %d: Write(%d) = %v, want %v", step, line, got, want)
				}
			case kind < 7:
				want := !worn[line]
				if want {
					worn[line] = true
					wornLines++
				}
				if got := c.ForceWear(line); got != want {
					t.Fatalf("step %d: ForceWear(%d) = %v, want %v", step, line, got, want)
				}
			default:
				c.Reset()
				clear(writes)
				clear(worn)
				total, wornLines = 0, 0
			}
			for i := 0; i < lines; i++ {
				remaining := max(budget[i]-writes[i], 0)
				if worn[i] {
					remaining = 0
				}
				if c.Writes(i) != writes[i] || c.Remaining(i) != remaining || c.Worn[i] != worn[i] {
					t.Fatalf("step %d line %d: core writes %d remaining %d worn %v, model %d %d %v",
						step, i, c.Writes(i), c.Remaining(i), c.Worn[i], writes[i], remaining, worn[i])
				}
			}
			if c.WornLines != wornLines || c.Total != total {
				t.Fatalf("step %d: core WornLines %d Total %d, model %d %d", step, c.WornLines, c.Total, wornLines, total)
			}
		}
	})
}
