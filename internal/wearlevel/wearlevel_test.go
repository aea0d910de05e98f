package wearlevel

import (
	"fmt"
	"slices"
	"testing"

	"maxwe/internal/xrand"
)

// recordingMover counts data-movement writes and can simulate failure:
// fail fails every write, failAt > 0 its failAt-th write (1-based) and
// every later one.
type recordingMover struct {
	writes []int
	fail   bool
	failAt int
}

func (m *recordingMover) WriteSlot(u int) bool {
	if m.fail || (m.failAt > 0 && len(m.writes)+1 >= m.failAt) {
		return false
	}
	m.writes = append(m.writes, u)
	return true
}

func checkPermutation(t *testing.T, l Leveler, slots int) {
	t.Helper()
	seen := make([]bool, slots)
	for lla := 0; lla < l.LogicalLines(); lla++ {
		u := l.Translate(lla)
		if u < 0 || u >= slots {
			t.Fatalf("%s: Translate(%d) = %d out of range", l.Name(), lla, u)
		}
		if seen[u] {
			t.Fatalf("%s: slot %d hit twice", l.Name(), u)
		}
		seen[u] = true
	}
}

func TestIdentity(t *testing.T) {
	l := NewIdentity(8)
	if l.LogicalLines() != 8 {
		t.Fatal("logical size wrong")
	}
	for i := 0; i < 8; i++ {
		if l.Translate(i) != i {
			t.Fatal("identity broken")
		}
	}
	m := &recordingMover{}
	if !l.OnWrite(0, m) || len(m.writes) != 0 {
		t.Fatal("identity moved data")
	}
}

func TestIdentityPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewIdentity(0) },
		func() { NewIdentity(4).Translate(4) },
		func() { NewIdentity(4).Translate(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestStartGapInjectiveAvoidsGap(t *testing.T) {
	l := NewStartGap(16, 4)
	m := &recordingMover{}
	for step := 0; step < 500; step++ {
		seen := make(map[int]bool)
		for lla := 0; lla < l.LogicalLines(); lla++ {
			u := l.Translate(lla)
			if u == l.Gap() {
				t.Fatalf("step %d: logical %d mapped onto gap %d", step, lla, u)
			}
			if seen[u] {
				t.Fatalf("step %d: slot %d hit twice", step, u)
			}
			if u < 0 || u >= 16 {
				t.Fatalf("step %d: slot %d out of range", step, u)
			}
			seen[u] = true
		}
		if !l.OnWrite(step%l.LogicalLines(), m) {
			t.Fatal("start-gap reported failure with healthy mover")
		}
	}
}

func TestStartGapMovesEveryPsi(t *testing.T) {
	l := NewStartGap(8, 3)
	m := &recordingMover{}
	gap0 := l.Gap()
	for i := 0; i < 2; i++ {
		l.OnWrite(0, m)
	}
	if l.Gap() != gap0 {
		t.Fatal("gap moved before psi writes")
	}
	l.OnWrite(0, m)
	if l.Gap() != gap0-1 {
		t.Fatalf("gap = %d after psi writes, want %d", l.Gap(), gap0-1)
	}
	// The movement wrote exactly one slot: the old gap position.
	if len(m.writes) != 1 || m.writes[0] != gap0 {
		t.Fatalf("movement writes = %v", m.writes)
	}
}

func TestStartGapFullRotationAdvancesStart(t *testing.T) {
	l := NewStartGap(4, 1)
	m := &recordingMover{}
	if l.Start() != 0 {
		t.Fatal("initial start nonzero")
	}
	// Gap starts at 3; after 3 moves it reaches 0; the 4th OnWrite wraps
	// it and advances start.
	for i := 0; i < 4; i++ {
		l.OnWrite(0, m)
	}
	if l.Start() != 1 {
		t.Fatalf("start = %d after full rotation, want 1", l.Start())
	}
	if l.Gap() != 3 {
		t.Fatalf("gap = %d after wrap, want 3", l.Gap())
	}
}

func TestStartGapPropagatesFailure(t *testing.T) {
	l := NewStartGap(4, 1)
	m := &recordingMover{fail: true}
	if l.OnWrite(0, m) {
		t.Fatal("failure not propagated")
	}
}

func TestStartGapPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewStartGap(1, 1) },
		func() { NewStartGap(4, 0) },
		func() { NewStartGap(4, 1).Translate(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func uniformMetrics(n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = 1000
	}
	return m
}

func gradedMetrics(n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = float64(100 * (i + 1))
	}
	return m
}

func TestSwapLevelersStayPermutations(t *testing.T) {
	src := xrand.New(31)
	levelers := []Leveler{
		NewTLSR(32, 5, xrand.New(1)),
		NewPCMS(32, 5, xrand.New(2)),
		NewBWL(32, gradedMetrics(32), 5, xrand.New(3)),
		NewWAWL(32, gradedMetrics(32), 5, xrand.New(4)),
	}
	m := &recordingMover{}
	for _, l := range levelers {
		for step := 0; step < 3000; step++ {
			if !l.OnWrite(src.Intn(l.LogicalLines()), m) {
				t.Fatalf("%s failed with healthy mover", l.Name())
			}
		}
		checkPermutation(t, l, 32)
	}
}

func TestSwapCostsTwoWrites(t *testing.T) {
	l := NewTLSR(16, 3, xrand.New(9))
	m := &recordingMover{}
	// Drive a single logical line: a swap should occur at its third write
	// (or a self-relocation costing zero).
	for i := 0; i < 300; i++ {
		l.OnWrite(5, m)
	}
	if l.Swaps() == 0 {
		t.Fatal("no swaps after 300 writes with psi=3")
	}
	if int64(len(m.writes)) != 2*l.Swaps() {
		t.Fatalf("movement writes = %d, want 2 per swap x %d swaps",
			len(m.writes), l.Swaps())
	}
}

func TestSwapFailurePropagates(t *testing.T) {
	l := NewTLSR(16, 1, xrand.New(9))
	m := &recordingMover{fail: true}
	// With psi=1, the first write triggers a relocation attempt; either it
	// self-relocates (keep trying) or the mover failure must propagate.
	for i := 0; i < 100; i++ {
		if !l.OnWrite(0, m) {
			return // propagated as expected
		}
	}
	t.Fatal("failure never propagated across 100 forced relocations")
}

func TestWAWLDwellScalesWithMetric(t *testing.T) {
	// With strongly graded metrics, a line on a strong slot must receive
	// a longer dwell than one on a weak slot.
	metrics := gradedMetrics(16)
	l := NewWAWL(16, metrics, 100, xrand.New(5))
	weakDwell := l.dwell(0)
	strongDwell := l.dwell(15)
	if strongDwell <= weakDwell {
		t.Fatalf("dwell(strong)=%d <= dwell(weak)=%d", strongDwell, weakDwell)
	}
}

func TestBWLUniformPick(t *testing.T) {
	l := NewBWL(16, gradedMetrics(16), 10, xrand.New(6))
	if l.chooser != nil {
		t.Fatal("BWL must pick targets uniformly (dwell-only bias)")
	}
	if l.dwellGamma != 0.5 {
		t.Fatal("BWL dwell gamma wrong")
	}
}

func TestWAWLBiasedPick(t *testing.T) {
	l := NewWAWL(16, gradedMetrics(16), 10, xrand.New(7))
	if l.chooser == nil {
		t.Fatal("WAWL must bias its relocation targets")
	}
	// Empirically, picks must favor high-metric slots.
	var lowHalf, highHalf int
	for i := 0; i < 10000; i++ {
		if l.Pick() < 8 {
			lowHalf++
		} else {
			highHalf++
		}
	}
	if highHalf <= lowHalf {
		t.Fatalf("WAWL picks not biased: low=%d high=%d", lowHalf, highHalf)
	}
}

func TestPCMSJitter(t *testing.T) {
	l := NewPCMS(16, 100, xrand.New(8))
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		seen[l.dwell(0)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("PCM-S dwell not jittered: %d distinct values", len(seen))
	}
	for d := range seen {
		if d < 50 || d > 150 {
			t.Fatalf("jittered dwell %d outside [psi/2, 3psi/2)", d)
		}
	}
}

func TestTLSRConstantDwell(t *testing.T) {
	l := NewTLSR(16, 100, xrand.New(8))
	for i := 0; i < 10; i++ {
		if l.dwell(i) != 100 {
			t.Fatalf("TLSR dwell = %d, want psi", l.dwell(i))
		}
	}
}

func TestSwapWLPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewTLSR(1, 5, xrand.New(1)) },
		func() { NewTLSR(8, 0, xrand.New(1)) },
		func() { NewTLSR(8, 5, nil) },
		func() { NewBWL(8, uniformMetrics(7), 5, xrand.New(1)) },
		func() { NewBWL(8, []float64{1, 1, 1, 1, 0, 1, 1, 1}, 5, xrand.New(1)) },
		func() { NewTLSR(8, 5, xrand.New(1)).Translate(8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTWLBondingAndToss(t *testing.T) {
	metrics := []float64{10, 1000, 20, 2000} // weak: 0,2; strong: 1,3
	l := NewTWL(4, metrics, xrand.New(12))
	if l.LogicalLines() != 2 {
		t.Fatalf("logical lines = %d", l.LogicalLines())
	}
	// Pair 0: weakest (slot 0) with strongest (slot 3).
	if l.weak[0] != 0 || l.strong[0] != 3 {
		t.Fatalf("pair 0 = (%d,%d), want (0,3)", l.weak[0], l.strong[0])
	}
	if l.weak[1] != 2 || l.strong[1] != 1 {
		t.Fatalf("pair 1 = (%d,%d), want (2,1)", l.weak[1], l.strong[1])
	}
	// Tossing must favor the strong member ~ E_s/(E_s+E_w) ≈ 0.995.
	strongHits := 0
	for i := 0; i < 10000; i++ {
		if l.Translate(0) == 3 {
			strongHits++
		}
	}
	if strongHits < 9800 {
		t.Fatalf("strong member hit %d/10000, want ~9950", strongHits)
	}
}

func TestTWLTranslateWithinPair(t *testing.T) {
	metrics := gradedMetrics(8)
	l := NewTWL(8, metrics, xrand.New(13))
	for lla := 0; lla < l.LogicalLines(); lla++ {
		for i := 0; i < 100; i++ {
			u := l.Translate(lla)
			if u != l.weak[lla] && u != l.strong[lla] {
				t.Fatalf("Translate(%d) = %d escaped its pair", lla, u)
			}
		}
	}
}

func TestTWLPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewTWL(3, uniformMetrics(3), xrand.New(1)) },
		func() { NewTWL(4, uniformMetrics(3), xrand.New(1)) },
		func() { NewTWL(4, uniformMetrics(4), nil) },
		func() { NewTWL(4, uniformMetrics(4), xrand.New(1)).Translate(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: across heavy traffic, swap levelers keep perm/inv mutually
// inverse.
func TestSwapPermInverseInvariant(t *testing.T) {
	l := NewWAWL(24, gradedMetrics(24), 2, xrand.New(14))
	m := &recordingMover{}
	src := xrand.New(15)
	for step := 0; step < 5000; step++ {
		l.OnWrite(src.Intn(24), m)
		if step%500 == 0 {
			for lla, slot := range l.perm {
				if l.inv[slot] != lla {
					t.Fatalf("perm/inv inconsistent at step %d", step)
				}
			}
		}
	}
}

func BenchmarkSwapWLOnWrite(b *testing.B) {
	l := NewWAWL(4096, gradedMetrics(4096), 64, xrand.New(1))
	m := &recordingMover{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.OnWrite(i&4095, m)
		if len(m.writes) > 1<<20 {
			m.writes = m.writes[:0]
		}
	}
}

// countingMover accepts every movement write and only counts it, so a
// benchmark times the leveler alone.
type countingMover struct{ writes int64 }

func (m *countingMover) WriteSlot(int) bool {
	m.writes++
	return true
}

// BenchmarkSwapWLRelocate times one relocation of each randomized swap
// leveler at the default sweep scale: 16384 slots, psi 32, metrics
// spread linearly over a 50x endurance ratio.
func BenchmarkSwapWLRelocate(b *testing.B) {
	const slots = 16384
	metrics := make([]float64, slots)
	for i := range metrics {
		metrics[i] = 1 + 49*float64(i)/(slots-1)
	}
	for _, c := range []struct {
		name string
		mk   func() *SwapWL
	}{
		{"tlsr", func() *SwapWL { return NewTLSR(slots, 32, xrand.New(1)) }},
		{"pcm-s", func() *SwapWL { return NewPCMS(slots, 32, xrand.New(1)) }},
		{"bwl", func() *SwapWL { return NewBWL(slots, metrics, 32, xrand.New(1)) }},
		{"wawl", func() *SwapWL { return NewWAWL(slots, metrics, 32, xrand.New(1)) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			l, m := c.mk(), &countingMover{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Relocate(i&(slots-1), m)
			}
		})
	}
}

func BenchmarkStartGapTranslate(b *testing.B) {
	l := NewStartGap(4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Translate(i & 4094)
	}
}

// The HotState + Pick/Commit split must be observationally identical to
// OnWrite: two identically-seeded levelers, one driven through OnWrite
// and one through the fast path the sim engine uses, must issue the same
// mover writes and end in the same placement/credit state. The fast path
// keeps a countdown per line and settles it into credit only at its
// events, as the sim does: its own spent countdown, and the line on a
// relocation's destination before the movement writes. With a mover that
// fails its k-th write, both paths must stop at the same user write with
// the same state once every countdown is settled.
func TestHotStateRelocateMatchesOnWrite(t *testing.T) {
	const slots = 24
	for _, mk := range []func(seed uint64) *SwapWL{
		func(s uint64) *SwapWL { return NewTLSR(slots, 6, xrand.New(s)) },
		func(s uint64) *SwapWL { return NewPCMS(slots, 6, xrand.New(s)) },
		func(s uint64) *SwapWL { return NewBWL(slots, gradedMetrics(slots), 6, xrand.New(s)) },
		func(s uint64) *SwapWL { return NewWAWL(slots, gradedMetrics(slots), 6, xrand.New(s)) },
	} {
		for _, k := range []int{0, 1, 2, 3, 50, 51} {
			ref, fast := mk(7), mk(7)
			name := fmt.Sprintf("%s/k=%d", ref.Name(), k)
			perm, inv, credit := fast.HotState()
			cd, grant := make([]int, slots), make([]int, slots)
			regrant := func(lla int) { cd[lla], grant[lla] = credit[lla], credit[lla] }
			settle := func(lla int) {
				credit[lla] -= grant[lla] - cd[lla]
				grant[lla] = cd[lla]
			}
			for lla := range cd {
				regrant(lla)
			}
			// fastWrite is the sim's per-write step: one decrement, and
			// settlement, Pick, movement writes and Commit on the event.
			fastWrite := func(lla int, mov Mover) bool {
				if cd[lla]--; cd[lla] > 0 {
					return true
				}
				settle(lla)
				if credit[lla] > 0 {
					regrant(lla)
					return true
				}
				dest := fast.Pick()
				if cur := perm[lla]; dest != cur {
					other := inv[dest]
					settle(other)
					if !mov.WriteSlot(dest) || !mov.WriteSlot(cur) {
						return false
					}
					fast.Commit(lla, dest)
					regrant(other)
				} else {
					fast.Commit(lla, dest)
				}
				regrant(lla)
				return true
			}
			refMov, fastMov := &recordingMover{failAt: k}, &recordingMover{failAt: k}
			addrs := xrand.New(8)
			refStop, fastStop := -1, -1
			for step := 0; step < 5000 && refStop < 0 && fastStop < 0; step++ {
				lla := addrs.Intn(slots)
				if ref.Translate(lla) != perm[lla] {
					t.Fatalf("%s: step %d: HotState perm diverged from Translate", name, step)
				}
				if !ref.OnWrite(lla, refMov) {
					refStop = step
				}
				if !fastWrite(lla, fastMov) {
					fastStop = step
				}
			}
			if refStop != fastStop || (k > 0) != (refStop >= 0) {
				t.Fatalf("%s: stopped at write %d on OnWrite, %d on the fast path", name, refStop, fastStop)
			}
			for lla := range cd {
				settle(lla)
			}
			if !slices.Equal(refMov.writes, fastMov.writes) {
				t.Fatalf("%s: mover writes diverged: %v vs %v", name, refMov.writes, fastMov.writes)
			}
			if !slices.Equal(ref.perm, perm) || !slices.Equal(ref.inv, inv) || !slices.Equal(ref.credit, credit) {
				t.Fatalf("%s: final state diverged: perm %v/%v credit %v/%v",
					name, ref.perm, perm, ref.credit, credit)
			}
			if ref.Swaps() != fast.Swaps() {
				t.Fatalf("%s: swap counts diverged: %d vs %d", name, ref.Swaps(), fast.Swaps())
			}
		}
	}
}

func TestNewConstructsEveryName(t *testing.T) {
	const slots = 64 // a power of two divisible into 8 partitions of >= 2
	metrics := func() []float64 {
		ms := make([]float64, slots)
		for u := range ms {
			ms[u] = float64(1 + u%7)
		}
		return ms
	}
	names := Names()
	if len(names) == 0 {
		t.Fatal("no wear-leveler names")
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("name %q listed twice", name)
		}
		seen[name] = true
		l, err := New(name, slots, metrics, 8, xrand.New(1))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if l.Name() != name {
			t.Fatalf("New(%q) built %q", name, l.Name())
		}
		checkPermutation(t, l, slots)
	}
	if _, err := New("nope", slots, metrics, 8, xrand.New(1)); err == nil {
		t.Fatal("unknown name accepted")
	}
	// Slot counts a substrate cannot cover are errors, not panics.
	for _, name := range []string{"twl", "security-refresh", "tlsr-exact", "partitioned-start-gap"} {
		if _, err := New(name, 63, metrics, 8, xrand.New(1)); err == nil {
			t.Fatalf("New(%q) accepted 63 slots", name)
		}
	}
}
