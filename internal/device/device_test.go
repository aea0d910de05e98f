package device

import (
	"testing"
	"testing/quick"

	"maxwe/internal/endurance"
	"maxwe/internal/xrand"
)

func newTestDevice() *Device {
	return New(endurance.Uniform(4, 4, 3)) // 16 lines, budget 3 each
}

func TestWriteCountsAndWearOut(t *testing.T) {
	d := newTestDevice()
	if d.Write(0) {
		t.Fatal("first write reported wear-out")
	}
	if d.Write(0) {
		t.Fatal("second write reported wear-out")
	}
	if !d.Write(0) {
		t.Fatal("third write did not report wear-out at budget 3")
	}
	if !d.Worn(0) {
		t.Fatal("line 0 not marked worn")
	}
	if d.WornCount() != 1 {
		t.Fatalf("WornCount = %d", d.WornCount())
	}
	// Writing a worn line counts but does not re-transition.
	if d.Write(0) {
		t.Fatal("worn line re-reported wear-out")
	}
	if d.Writes(0) != 4 {
		t.Fatalf("Writes(0) = %d, want 4", d.Writes(0))
	}
}

func TestRemaining(t *testing.T) {
	d := newTestDevice()
	if d.Remaining(5) != 3 {
		t.Fatalf("fresh Remaining = %d", d.Remaining(5))
	}
	d.Write(5)
	if d.Remaining(5) != 2 {
		t.Fatalf("Remaining after 1 write = %d", d.Remaining(5))
	}
	d.Write(5)
	d.Write(5)
	d.Write(5) // past budget
	if d.Remaining(5) != 0 {
		t.Fatalf("Remaining for worn line = %d", d.Remaining(5))
	}
}

func TestTotalWrites(t *testing.T) {
	d := newTestDevice()
	for i := 0; i < 10; i++ {
		d.Write(i % d.Lines())
	}
	if d.TotalWrites() != 10 {
		t.Fatalf("TotalWrites = %d", d.TotalWrites())
	}
}

func TestGeometryAccessors(t *testing.T) {
	d := New(endurance.Uniform(8, 32, 5))
	if d.Lines() != 256 || d.Regions() != 8 || d.LinesPerRegion() != 32 {
		t.Fatalf("geometry: %d/%d/%d", d.Lines(), d.Regions(), d.LinesPerRegion())
	}
	if d.RegionOf(0) != 0 || d.RegionOf(31) != 0 || d.RegionOf(32) != 1 || d.RegionOf(255) != 7 {
		t.Fatal("RegionOf mapping wrong")
	}
	if d.Endurance(0) != 5 {
		t.Fatalf("Endurance(0) = %d", d.Endurance(0))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := newTestDevice()
	for _, f := range []func(){
		func() { d.Write(-1) },
		func() { d.Write(16) },
		func() { d.Worn(99) },
		func() { d.Remaining(-2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestIdealLifetime(t *testing.T) {
	d := New(endurance.Uniform(2, 2, 100))
	if d.IdealLifetime() != 400 {
		t.Fatalf("IdealLifetime = %v", d.IdealLifetime())
	}
}

func TestWearFraction(t *testing.T) {
	d := New(endurance.Uniform(1, 4, 10)) // 4 lines x 10
	if d.WearFraction() != 0 {
		t.Fatal("fresh device has nonzero wear")
	}
	for i := 0; i < 10; i++ {
		d.Write(0)
	}
	if got := d.WearFraction(); got != 0.25 {
		t.Fatalf("WearFraction = %v, want 0.25", got)
	}
	// Over-writing a worn line must not push fraction past its budget.
	d.Write(0)
	if got := d.WearFraction(); got != 0.25 {
		t.Fatalf("WearFraction after overdrive = %v, want 0.25", got)
	}
}

func TestReset(t *testing.T) {
	d := newTestDevice()
	for i := 0; i < 5; i++ {
		d.Write(1)
	}
	d.Reset()
	if d.TotalWrites() != 0 || d.WornCount() != 0 || d.Writes(1) != 0 || d.Worn(1) {
		t.Fatal("Reset did not clear state")
	}
}

func TestWearHistogram(t *testing.T) {
	d := New(endurance.Uniform(1, 4, 10))
	d.Write(0) // 10%
	for i := 0; i < 5; i++ {
		d.Write(1) // 50%
	}
	for i := 0; i < 10; i++ {
		d.Write(2) // worn
	}
	h := d.WearHistogram(10)
	if h[0] != 1 { // line 3 untouched (0%) ... and line 0 at 10% is bucket 1
		t.Fatalf("bucket 0 = %d, want 1 (untouched line)", h[0])
	}
	if h[1] != 1 {
		t.Fatalf("bucket 1 = %d, want 1 (10%% line)", h[1])
	}
	if h[5] != 1 {
		t.Fatalf("bucket 5 = %d, want 1 (50%% line)", h[5])
	}
	if h[9] != 1 {
		t.Fatalf("bucket 9 = %d, want 1 (worn line)", h[9])
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != d.Lines() {
		t.Fatalf("histogram total %d != lines %d", total, d.Lines())
	}
}

func TestWearHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WearHistogram(0) did not panic")
		}
	}()
	newTestDevice().WearHistogram(0)
}

// Property: under any write sequence, WornCount equals the number of lines
// whose write counter is at or past budget.
func TestWornCountConsistencyProperty(t *testing.T) {
	f := func(seed uint64, steps uint16) bool {
		src := xrand.New(seed)
		d := New(endurance.Uniform(2, 8, 4))
		for i := 0; i < int(steps%500); i++ {
			d.Write(src.Intn(d.Lines()))
		}
		want := 0
		for l := 0; l < d.Lines(); l++ {
			if d.Writes(l) >= d.Endurance(l) {
				want++
				if !d.Worn(l) {
					return false
				}
			} else if d.Worn(l) {
				return false
			}
		}
		return d.WornCount() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: each line reports wear-out exactly once.
func TestSingleWearOutTransitionProperty(t *testing.T) {
	d := New(endurance.Uniform(1, 1, 5))
	transitions := 0
	for i := 0; i < 20; i++ {
		if d.Write(0) {
			transitions++
		}
	}
	if transitions != 1 {
		t.Fatalf("line transitioned %d times", transitions)
	}
}

func TestVariedProfileWearOrder(t *testing.T) {
	// Weakest line must wear out first under uniform writing.
	p := endurance.Linear(1, 8, 2, 16)
	d := New(p)
	var firstWorn int = -1
	for round := 0; firstWorn < 0 && round < 100; round++ {
		for l := 0; l < d.Lines(); l++ {
			if d.Write(l) && firstWorn < 0 {
				firstWorn = l
			}
		}
	}
	if firstWorn != 0 {
		t.Fatalf("first worn line = %d, want weakest (0)", firstWorn)
	}
}

func TestForceWear(t *testing.T) {
	d := New(endurance.Uniform(1, 4, 10))
	if d.Write(0) {
		t.Fatal("first write wore a 10-budget line")
	}
	if !d.ForceWear(0) {
		t.Fatal("ForceWear on a healthy line did not transition")
	}
	if !d.Worn(0) {
		t.Fatal("force-worn line not reported worn")
	}
	if d.WornCount() != 1 {
		t.Fatalf("worn count = %d, want 1", d.WornCount())
	}
	if r := d.Remaining(0); r != 0 {
		t.Fatalf("force-worn line has %d writes remaining, want 0", r)
	}
	// A second ForceWear is a no-op and must not double-count.
	if d.ForceWear(0) {
		t.Fatal("ForceWear transitioned an already-worn line")
	}
	if d.WornCount() != 1 {
		t.Fatalf("worn count after double ForceWear = %d, want 1", d.WornCount())
	}
	// Writes to a force-worn line are counted but never transition.
	before := d.TotalWrites()
	if d.Write(0) {
		t.Fatal("write to force-worn line reported a transition")
	}
	if d.TotalWrites() != before+1 {
		t.Fatal("write to force-worn line not counted")
	}
	// ForceWear counts no write.
	d.ForceWear(1)
	if d.Writes(1) != 0 {
		t.Fatal("ForceWear consumed a write")
	}
}

// Regression: a force-worn line with consumed-fraction < 1 must land in
// the LAST histogram bin ("worn lines land in the last bin"), not in the
// interior bucket its write counter would suggest.
func TestWearHistogramForceWornLandsInLastBin(t *testing.T) {
	d := New(endurance.Uniform(1, 4, 10))
	d.Write(0)     // 10% consumed...
	d.ForceWear(0) // ...then killed: dead, not lightly used.
	h := d.WearHistogram(10)
	if h[9] != 1 {
		t.Fatalf("last bucket = %d, want 1 (force-worn line)", h[9])
	}
	if h[1] != 0 {
		t.Fatalf("bucket 1 = %d, want 0 — force-worn line leaked into interior bucket", h[1])
	}
	// A completely untouched force-worn line must not land in bucket 0.
	d.ForceWear(1)
	h = d.WearHistogram(10)
	if h[9] != 2 {
		t.Fatalf("last bucket = %d, want 2", h[9])
	}
	if h[0] != 2 { // lines 2 and 3 untouched
		t.Fatalf("bucket 0 = %d, want 2 (the two healthy untouched lines)", h[0])
	}
}

// Reset must also clear force-worn state and restore the full budget.
func TestResetAfterForceWear(t *testing.T) {
	d := New(endurance.Uniform(1, 4, 10))
	d.Write(2)
	d.ForceWear(2)
	d.Reset()
	if d.Worn(2) || d.WornCount() != 0 {
		t.Fatal("Reset left force-worn state behind")
	}
	if d.Remaining(2) != 10 {
		t.Fatalf("Remaining after Reset = %d, want full budget 10", d.Remaining(2))
	}
	if d.TotalWrites() != 0 || d.Writes(2) != 0 {
		t.Fatal("Reset left write counters behind")
	}
	// The revived line must wear out normally again.
	for i := 0; i < 9; i++ {
		if d.Write(2) {
			t.Fatalf("write %d reported premature wear-out after Reset", i+1)
		}
	}
	if !d.Write(2) {
		t.Fatal("line did not wear out at budget after Reset")
	}
}

// The Core accessor must expose the same state the Device view reports,
// and direct core mutations must be observed by the view — the contract
// the struct-of-arrays sim loops depend on.
func TestCoreViewConsistency(t *testing.T) {
	d := New(endurance.Uniform(2, 2, 5))
	c := d.Core()
	if len(c.Left) != d.Lines() || len(c.Endurance) != d.Lines() || len(c.Worn) != d.Lines() {
		t.Fatal("core slice lengths disagree with device geometry")
	}
	for i := 0; i < d.Lines(); i++ {
		if c.Endurance[i] != d.Endurance(i) {
			t.Fatalf("line %d: core endurance %d != device %d", i, c.Endurance[i], d.Endurance(i))
		}
	}
	// Device write visible through core.
	d.Write(1)
	if c.Writes(1) != 1 || c.Left[1] != 4 || c.Total != 1 {
		t.Fatal("device write not visible through core")
	}
	// Core mutation visible through device, including the transition.
	for i := 0; i < 4; i++ {
		c.Write(1)
	}
	if !d.Worn(1) || d.WornCount() != 1 || d.Writes(1) != 5 || d.TotalWrites() != 5 {
		t.Fatal("core writes not visible through device view")
	}
	if c.Remaining(1) != 0 || d.Remaining(1) != 0 {
		t.Fatal("Remaining disagrees between core and view")
	}
	// Core ForceWear semantics match the device's.
	if !c.ForceWear(0) || c.ForceWear(0) {
		t.Fatal("core ForceWear transition semantics wrong")
	}
	if !d.Worn(0) || d.WornCount() != 2 {
		t.Fatal("core ForceWear not visible through device view")
	}
}

func BenchmarkDeviceWrite(b *testing.B) {
	d := New(endurance.Uniform(64, 64, 1<<40))
	n := d.Lines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write(i % n)
	}
}
