package sim

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64).
// Each proc owns one so that simulations are reproducible regardless of
// interleaving.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) RNG { return RNG{state: seed + 0x9e3779b97f4a7c15} }

// Next returns the next 64-bit pseudo-random value.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). n must be non-zero.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Next() % n
}
