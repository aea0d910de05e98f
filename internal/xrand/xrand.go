// Package xrand provides the deterministic random-number substrate used by
// every stochastic component of the simulator (endurance sampling, attack
// address streams, wear-leveling randomization).
//
// The simulator needs reproducible runs: the same seed must yield the same
// endurance profile, the same attack stream and the same remapping
// decisions, on every platform and independently of math/rand's global
// state or Go-version-dependent algorithm changes. xrand therefore
// implements its own generators:
//
//   - splitmix64 for seeding and cheap stateless hashing, and
//   - xoshiro256** as the general-purpose stream generator,
//
// plus the handful of distributions the models need (uniform integers
// without modulo bias, normal via Box-Muller, Zipf, permutations).
package xrand

import (
	"math"
	"math/bits"
)

// splitmix64 advances a 64-bit state and returns the next output of the
// SplitMix64 sequence. It is used to expand a single user seed into the
// four xoshiro words and for one-shot hashing.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 deterministically mixes x into a well-distributed 64-bit value.
// It is the stateless companion of Source, used where a keyed hash is
// needed (for example the security-refresh address scrambler).
func Hash64(x uint64) uint64 {
	s := x
	return splitmix64(&s)
}

// Source is a seedable xoshiro256** PRNG. The zero value is not valid;
// construct one with New.
type Source struct {
	s [4]uint64

	// spare normal deviate from Box-Muller (one of each pair is cached).
	hasSpare bool
	spare    float64
}

// New returns a Source seeded from seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the generator to the state derived from seed, discarding
// any cached normal deviate.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** requires a nonzero state; splitmix64 of any seed is
	// nonzero with overwhelming probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasSpare = false
	r.spare = 0
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly random uint64 in [0, n). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Lemire rejection sampling: multiply 64x64 -> 128 and use the high
	// word, rejecting the small biased region of the low word.
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n {
			// Fast path: -n % n == (2^64 - n) % n, the bias threshold.
			return hi
		}
	}
}

// Float64 returns a uniformly random float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard-normal deviate (mean 0, stddev 1) using
// the Box-Muller transform. One deviate of each generated pair is cached.
func (r *Source) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Perm returns a uniformly random permutation of [0, n) as a slice,
// produced by an inside-out Fisher-Yates shuffle.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the n elements addressed by swap uniformly at random.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// cdfTable is the inverse-CDF sampler shared by Zipf and WeightedChooser:
// the normalized cumulative distribution plus a guide table that narrows
// each draw's binary search to one bucket.
//
// K is the smallest power of two >= len(cdf), and guide[b] is the first
// index with cdf[i] >= b/K for b = 0..K. A draw u in [0, 1) falls in
// bucket b = floor(u*K), computed exactly because K is a power of two.
// Every index below guide[b] has cdf < b/K <= u and cdf[guide[b+1]] >=
// (b+1)/K > u, so the first index with cdf >= u — the answer of a plain
// binary search over the whole table — lies in [guide[b], guide[b+1]].
// The search there returns exactly that index, so the sampled stream is
// the plain search's bit for bit. This needs cdf monotone, which
// cumulative sums of non-negative terms divided by their positive total
// are, and cdf[len-1] == 1, which holds because it is the total divided by
// itself.
type cdfTable struct {
	cdf   []float64
	guide []int32
	k     float64
}

// newCDFTable normalizes the running sums in cdf by their last entry, in
// place, and builds the guide table over them.
func newCDFTable(cdf []float64) cdfTable {
	sum := cdf[len(cdf)-1]
	for i := range cdf {
		cdf[i] /= sum
	}
	k := 1
	for k < len(cdf) {
		k <<= 1
	}
	guide := make([]int32, k+1)
	i := 0
	for b := range guide {
		for t := float64(b) / float64(k); i < len(cdf)-1 && cdf[i] < t; {
			i++
		}
		guide[b] = int32(i)
	}
	return cdfTable{cdf: cdf, guide: guide, k: float64(k)}
}

// N returns the number of indices the sampler draws from.
func (t *cdfTable) N() int { return len(t.cdf) }

// Draw samples an index using randomness from src: the first index whose
// cumulative probability reaches a uniform draw.
func (t *cdfTable) Draw(src *Source) int { return t.index(src.Float64()) }

// index returns the first i with cdf[i] >= u, for u in [0, 1).
func (t *cdfTable) index(u float64) int {
	b := int(u * t.k)
	lo, hi := int(t.guide[b]), int(t.guide[b+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Zipf draws ranks in [0, n) from a Zipf distribution with any exponent
// s >= 0 (s == 0 is uniform, s == 1 the classic harmonic law) by
// inverse-CDF sampling on a precomputed table. Build it once with NewZipf
// and reuse it across draws.
type Zipf struct {
	cdfTable
}

// NewZipf builds a Zipf sampler over ranks [0, n) with exponent s.
// Probability of rank k is proportional to 1/(k+1)^s. It panics if
// n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("xrand: NewZipf with negative exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	return &Zipf{newCDFTable(cdf)}
}

// WeightedChooser samples indices proportionally to a fixed non-negative
// weight vector. It is used by the endurance-aware wear-leveling models
// (BWL, WAWL) to direct traffic toward strong regions.
type WeightedChooser struct {
	cdfTable
}

// NewWeightedChooser builds a sampler over len(weights) indices. Weights
// must be non-negative and not all zero; it panics otherwise.
func NewWeightedChooser(weights []float64) *WeightedChooser {
	if len(weights) == 0 {
		panic("xrand: NewWeightedChooser with empty weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: NewWeightedChooser with negative or NaN weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("xrand: NewWeightedChooser with all-zero weights")
	}
	return &WeightedChooser{newCDFTable(cdf)}
}
