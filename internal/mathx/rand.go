package mathx

import "math"

// RNG is a small, fast, deterministic random number generator
// (splitmix64-seeded xoshiro256**). Every stochastic component in the
// repository takes an *RNG so that experiments are reproducible from a
// single seed.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given value. Distinct seeds
// yield independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into the xoshiro state.
	x := seed
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from r, keyed by id. Use it to
// give parallel components uncorrelated streams.
func (r *RNG) Split(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id * 0x9e3779b97f4a7c15))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal variate (Box-Muller).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormMeanStd returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) NormMeanStd(mean, std float64) float64 {
	return mean + std*r.Norm()
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
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

// Shuffle permutes the first n indices via the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n.
func (r *RNG) Sample(n, k int) []int {
	if k > n {
		panic("mathx: Sample k > n")
	}
	return r.Perm(n)[:k]
}
