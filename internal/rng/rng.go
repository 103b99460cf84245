// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// Determinism and splittability matter more here than statistical
// sophistication: the paper's methodology (Section 4.2) isolates sources of
// measurement variance — page allocation, set-sample selection, reference
// streams — by varying one source at a time. Each source therefore draws
// from its own independent stream, derived from a parent seed and a string
// label, so that re-running a trial with a different page-allocation seed
// leaves every reference stream bit-identical.
//
// The generator is xoshiro256** seeded via splitmix64, both public-domain
// algorithms by Blackman and Vigna.
package rng

import "math/bits"

// Source is a deterministic random number generator. The zero value is not
// usable; obtain one from New or by splitting an existing Source.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used both to seed xoshiro and to hash labels for Split.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams; the same seed always yields the same stream.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed re-initializes the Source from seed, as if freshly created by New.
func (r *Source) Reseed(seed uint64) {
	state := seed
	for i := range r.s {
		r.s[i] = splitmix64(&state)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits. It is the reference xoshiro256**
// step (s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= s1<<17 with the
// old s1; s3 = rotl(s3, 45)) with the state loaded into locals and stored
// once, which keeps it, Float64 and Bool within the inliner's budget: the
// generators' draws are inlined, not called.
func (r *Source) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Split derives an independent child Source from this Source's current
// state and a label. Splitting does not advance the parent, so the set of
// children obtained from a given parent state is a pure function of the
// labels: rng.New(s).Split("pages") is the same stream no matter what other
// labels were split off first.
func (r *Source) Split(label string) *Source {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	// Mix the parent identity (its seed-derived state) with the label hash.
	state := r.s[0] ^ rotl(h, 31)
	var c Source
	for i := range c.s {
		c.s[i] = splitmix64(&state)
	}
	if c.s[0]|c.s[1]|c.s[2]|c.s[3] == 0 {
		c.s[0] = 1
	}
	return &c
}

// State is the complete serializable state of a Source: the four xoshiro
// words. Checkpointing captures walker and kernel streams as States and
// restores them with FromState, so a forked kernel draws exactly the
// numbers a fresh boot would.
type State [4]uint64

// State snapshots the Source's current position in its stream.
func (r *Source) State() State { return r.s }

// FromState reconstructs a Source at the exact stream position captured by
// State. An all-zero state (never produced by a live Source) is rejected
// the same way Reseed guards it.
func FromState(st State) *Source {
	var r Source
	r.s = st
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return &r
}

// Uint32 returns the next 32 random bits.
func (r *Source) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method keeps the result unbiased.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	return bits.Mul64(x, y)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. It is Float64() < p with both
// sides scaled by 2^53, which is exact for every p (NaN included), so it
// saves the division without changing a single outcome.
func (r *Source) Bool(p float64) bool {
	return float64(r.Uint64()>>11) < p*(1<<53)
}

// Perm returns a random permutation of the integers [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf draws from a Zipf-like distribution over [0, n) with exponent s > 0,
// using inverse-CDF on a precomputed table is avoided for simplicity; this
// uses rejection-inversion adequate for the small n used by workload models.
type Zipf struct {
	src  *Source
	cdf  []float64 // cumulative probabilities, len n
	last int
}

// NewZipf builds a Zipf distribution over [0, n) with exponent s, drawing
// randomness from src. Small n (≤ a few thousand) is expected.
func NewZipf(src *Source, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / powf(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{src: src, cdf: cdf}
}

// Draw returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	z.last = lo
	return lo
}

// powf computes x**y for y >= 0 without importing math, adequate for the
// Zipf exponents (0.5–2.0) used here. It uses exp(y*ln x) via simple series
// is overkill; instead handle the common cases exactly and approximate the
// rest with sqrt-based decomposition.
func powf(x, y float64) float64 {
	switch y {
	case 0:
		return 1
	case 1:
		return x
	case 2:
		return x * x
	}
	// Integer part by repeated multiplication, fractional part by
	// square roots (binary expansion of the fraction).
	n := int(y)
	frac := y - float64(n)
	r := 1.0
	for i := 0; i < n; i++ {
		r *= x
	}
	// Approximate x**frac with 20 binary digits of the exponent.
	base := x
	for i := 0; i < 20; i++ {
		base = sqrt(base)
		frac *= 2
		if frac >= 1 {
			r *= base
			frac -= 1
		}
	}
	return r
}

// sqrt computes the square root by Newton's method.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}
