package xrand

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestReseedDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
	a.Reseed(42)
	c := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != c.Uint64() {
			t.Fatalf("reseeded stream diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("zero seed produced all-zero xoshiro state")
	}
	_ = r.Uint64()
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

// TestIntnUniform checks a coarse chi-squared-style bound on small-n
// uniformity: with 8 buckets and 80k draws each bucket expects 10k; allow
// 5% relative deviation (far beyond ~3.3 sigma).
func TestIntnUniform(t *testing.T) {
	r := New(99)
	const n, draws = 8, 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-draws/n) > 0.05*draws/n {
			t.Fatalf("bucket %d count %d deviates >5%% from %d", b, c, draws/n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 2, 17, 256} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(13)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	seen := map[int]bool{}
	for _, v := range s {
		got += v
		seen[v] = true
	}
	if got != sum || len(seen) != len(s) {
		t.Fatalf("shuffle corrupted slice: %v", s)
	}
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64(12345) != Hash64(12345) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1) == Hash64(2) {
		t.Fatal("Hash64(1) == Hash64(2): suspicious collision")
	}
}

// Property: Uint64n(n) < n for all n > 0.
func TestUint64nBoundProperty(t *testing.T) {
	r := New(21)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkewsLow(t *testing.T) {
	z := NewZipf(100, 1.0)
	r := New(8)
	var first10, rest int
	for i := 0; i < 50000; i++ {
		k := z.Draw(r)
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf draw %d out of range", k)
		}
		if k < 10 {
			first10++
		} else {
			rest++
		}
	}
	if first10 <= rest {
		t.Fatalf("Zipf(s=1) not skewed: first10=%d rest=%d", first10, rest)
	}
}

func TestZipfZeroExponentUniform(t *testing.T) {
	z := NewZipf(4, 0)
	r := New(9)
	var counts [4]int
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[z.Draw(r)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-draws/4) > 0.06*draws/4 {
			t.Fatalf("Zipf(s=0) bucket %d count %d not uniform", b, c)
		}
	}
}

func TestWeightedChooserProportions(t *testing.T) {
	w := NewWeightedChooser([]float64{1, 0, 3})
	r := New(10)
	var counts [3]int
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[w.Draw(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio 3 sampled as %v", ratio)
	}
}

func TestWeightedChooserPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewWeightedChooser(%v) did not panic", c)
				}
			}()
			NewWeightedChooser(c)
		}()
	}
}

// TestUint64nGoldenStream pins the Uint64n and Intn streams of a few
// seeds, recorded from the original implementation: the first draws
// literally and 10k draws through an FNV-1a checksum. The n values cover
// the trivial range, small ranges, the sim's typical sizes and ranges
// near 2^64 where Lemire's rejection step fires often. Every endurance
// shuffle, leveler pick and attack redraw depends on these exact
// streams.
func TestUint64nGoldenStream(t *testing.T) {
	cases := []struct {
		seed, n uint64
		first   [4]uint64
		sum     uint64
	}{
		{1, 1, [4]uint64{0, 0, 0, 0}, 0x9b85a68c78294d25},
		{1, 3, [4]uint64{2, 1, 1, 1}, 0xb60f761b29add187},
		{1, 1000, [4]uint64{702, 520, 574, 391}, 0xfe01b5c2ee85cbfc},
		{1, 16384, [4]uint64{11516, 8526, 9406, 6411}, 0xc4d485291db1cd4d},
		{1, 1<<40 + 7, [4]uint64{772870728980, 572226115146, 631235892748, 430270348229}, 0xf3ca196ea6d3f2c4},
		{1, 1<<63 + 1, [4]uint64{4800180567299270261, 5295190459760845450, 3609369285294772691, 3515805966490203214}, 0x6c240748ba9a238f},
		{1, math.MaxUint64, [4]uint64{12966619160104079556, 9600361134598540521, 10590380919521690899, 7218738570589545382}, 0x1084ee5d6cc41656},
		{42, 1, [4]uint64{0, 0, 0, 0}, 0x9b85a68c78294d25},
		{42, 3, [4]uint64{0, 1, 2, 2}, 0xb530d1eac9c578e7},
		{42, 1000, [4]uint64{83, 378, 680, 924}, 0x5edadac3aa5e25b8},
		{42, 16384, [4]uint64{1374, 6209, 11141, 15150}, 0x6855aeb225ac8711},
		{42, 1<<40 + 7, [4]uint64{92208311820, 416693192303, 747715637822, 1016710645514}, 0x336568243d428ecb},
		{42, 1<<63 + 1, [4]uint64{9147776489032658738, 7099593415032875292, 6633989454467100377, 7022439175346172479}, 0xd59ea05149429905},
		{42, math.MaxUint64, [4]uint64{1546998764402558741, 6990951692964543101, 12544586762248559008, 17057574109182124192}, 0x409a7aeb70d95d63},
		{20190602, 1, [4]uint64{0, 0, 0, 0}, 0x9b85a68c78294d25},
		{20190602, 3, [4]uint64{1, 0, 2, 0}, 0x95d3f785659432e7},
		{20190602, 1000, [4]uint64{337, 1, 926, 72}, 0xaa84a44dcb84c93},
		{20190602, 16384, [4]uint64{5530, 26, 15185, 1180}, 0x9716eb4b6e24b125},
		{20190602, 1<<40 + 7, [4]uint64{371147327684, 1765157689, 1019103166987, 79208536002}, 0x6eaa521ea66caabb},
		{20190602, 1<<63 + 1, [4]uint64{3113409442173249354, 8548856979358589839, 4479928834199753221, 7361287791552467339}, 0xa5abf6cc84a20ef3},
		{20190602, math.MaxUint64, [4]uint64{6226818884346498708, 29614431822263017, 17097713958717179677, 1328898717549502181}, 0x19c84cc4a0cfca97},
	}
	for _, c := range cases {
		r := New(c.seed)
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < 10000; i++ {
			v := r.Uint64n(c.n)
			if i < len(c.first) && v != c.first[i] {
				t.Fatalf("seed %d: Uint64n(%d) draw %d = %d, want %d", c.seed, c.n, i, v, c.first[i])
			}
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != c.sum {
			t.Fatalf("seed %d: Uint64n(%d) 10k-draw checksum %#x, want %#x", c.seed, c.n, got, c.sum)
		}
	}

	intn := []struct {
		seed uint64
		want map[int][6]int
	}{
		{7, map[int][6]int{
			2:      {1, 0, 1, 1, 1, 1},
			17:     {1, 1, 6, 2, 9, 12},
			2048:   {1923, 1803, 924, 1148, 525, 954},
			16384:  {2564, 2190, 2808, 10671, 10935, 4605},
			100000: {74960, 12876, 4091, 59047, 17550, 47973},
		}},
		{20190602, map[int][6]int{
			2:      {0, 0, 1, 0, 0, 0},
			17:     {0, 4, 12, 13, 3, 6},
			2048:   {1145, 1117, 1543, 1824, 940, 537},
			16384:  {7187, 9932, 4349, 11593, 6130, 754},
			100000: {31068, 82601, 88136, 87736, 19218, 41814},
		}},
	}
	for _, c := range intn {
		// One source per seed, drained n by n in this order.
		r := New(c.seed)
		for _, n := range []int{2, 17, 2048, 16384, 100000} {
			for i, want := range c.want[n] {
				if got := r.Intn(n); got != want {
					t.Fatalf("seed %d: Intn(%d) draw %d = %d, want %d", c.seed, n, i, got, want)
				}
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(2048)
	}
}

// plainIndex is the sampler's specification: a binary search over the
// whole table for the first cdf entry >= u.
func plainIndex(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkCDFTable compares the guide-table search against plainIndex at
// every bucket boundary b/K, every cdf value, the float64 neighbours of
// both, and draws uniform values from a seeded source.
func checkCDFTable(t *testing.T, name string, tab *cdfTable, draws int) {
	t.Helper()
	probe := func(u float64) {
		if u < 0 || u >= 1 {
			return
		}
		if got, want := tab.index(u), plainIndex(tab.cdf, u); got != want {
			t.Fatalf("%s: index(%v) = %d, plain search %d", name, u, got, want)
		}
	}
	near := func(u float64) {
		probe(u)
		probe(math.Nextafter(u, math.Inf(-1)))
		probe(math.Nextafter(u, math.Inf(1)))
	}
	for b := 0; b <= int(tab.k); b++ {
		near(float64(b) / tab.k)
	}
	for _, c := range tab.cdf {
		near(c)
	}
	src := New(uint64(len(tab.cdf)))
	for i := 0; i < draws; i++ {
		probe(src.Float64())
	}
}

func TestCDFTableMatchesBinarySearch(t *testing.T) {
	const draws = 200_000
	for _, n := range []int{1, 2, 3, 7, 1000, 16000, 16384} {
		for _, s := range []float64{0, 0.5, 1.1, 3, 40} {
			z := NewZipf(n, s)
			if len(z.guide) != int(z.k)+1 || int(z.k) < n || int(z.k)/2 >= n {
				t.Fatalf("zipf n=%d: K=%v, %d guide entries", n, z.k, len(z.guide))
			}
			checkCDFTable(t, fmt.Sprintf("zipf n=%d s=%v", n, s), &z.cdfTable, draws)
		}
		// Weights with interior and trailing zeros, and a leading one.
		src := New(uint64(n) + 99)
		w := make([]float64, n)
		for i := range w {
			if src.Intn(3) != 0 {
				w[i] = src.Float64() * 10
			}
		}
		w[0] = 0
		for i := n - n/4; i < n; i++ {
			w[i] = 0
		}
		if n <= 4 {
			w[0] = 1
		}
		wc := NewWeightedChooser(w)
		checkCDFTable(t, fmt.Sprintf("weights n=%d", n), &wc.cdfTable, draws)
	}
}

// FuzzCDFTableMatchesBinarySearch fuzzes the weights (one byte each, so
// zeros are common) and the draw u, which is folded into [0, 1).
func FuzzCDFTableMatchesBinarySearch(f *testing.F) {
	f.Add([]byte{1}, 0.5)
	f.Add([]byte{0, 0, 3, 0, 0}, 0.999999)
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0}, 0.0)
	f.Add([]byte{255, 1, 1, 1, 0, 1, 0, 0}, 0.9999999999999999)
	f.Fuzz(func(t *testing.T, raw []byte, u float64) {
		w := make([]float64, len(raw))
		sum := 0.0
		for i, b := range raw {
			w[i] = float64(b)
			sum += w[i]
		}
		if sum == 0 {
			return
		}
		u = math.Abs(math.Mod(u, 1))
		if math.IsNaN(u) {
			u = 0
		}
		tab := &NewWeightedChooser(w).cdfTable
		if got, want := tab.index(u), plainIndex(tab.cdf, u); got != want {
			t.Fatalf("weights %v: index(%v) = %d, plain search %d", raw, u, got, want)
		}
		checkCDFTable(t, fmt.Sprintf("weights %v", raw), tab, 64)
	})
}

// benchWeights is WAWL's pick distribution at the default scale: 16384
// slots, weight sqrt(metric) over a linear endurance spread of q = 50.
func benchWeights() []float64 {
	const n = 16384
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Sqrt(1 + 49*float64(i)/float64(n-1))
	}
	New(5).Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

var benchSink int

func BenchmarkWeightedChooserDraw(b *testing.B) {
	w := NewWeightedChooser(benchWeights())
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += w.Draw(r)
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	z := NewZipf(16384, 1.1)
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += z.Draw(r)
	}
}
