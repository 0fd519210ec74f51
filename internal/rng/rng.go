// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Simulation results must be reproducible from a seed alone, independent of
// Go release or platform, so the simulator does not use math/rand. The
// generator is xoshiro256** seeded via SplitMix64, the combination
// recommended by Blackman and Vigna. It is not safe for concurrent use; each
// concurrent simulation owns its own *Source.
package rng

import "math/bits"

// Source is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed using SplitMix64 so that
// nearby seeds produce unrelated streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed re-initialises the generator state from seed, as if freshly
// constructed with New(seed).
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro256** state must not be all zero; SplitMix64 guarantees this
	// for any seed, but guard against future edits breaking the property.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
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

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method, which avoids modulo bias.
func (r *Source) boundedUint64(n uint64) uint64 {
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo). bits.Mul64
// is a compiler intrinsic: one widening multiply on amd64 and arm64.
func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p. Values of p outside [0, 1]
// clamp to always-false / always-true.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n) using Fisher-Yates.
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

// State returns the generator's raw xoshiro256** state, for
// checkpointing. Restoring it with SetState resumes the stream exactly.
func (r *Source) State() [4]uint64 {
	return r.s
}

// SetState replaces the generator state with a value previously obtained
// from State. An all-zero state is invalid for xoshiro256** and is
// normalised to a minimal non-zero state rather than poisoning the stream.
func (r *Source) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 1
	}
	r.s = s
}
