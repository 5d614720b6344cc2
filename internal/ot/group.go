// Package ot implements the paper's oblivious-transfer flow behind
// PASNet's 2PC comparison protocol (paper Sec. II-C and Fig. 4).
//
// The group is the multiplicative group of the Mersenne prime field
// GF(2^61 - 1), chosen so that modular arithmetic runs on native uint64
// words (the paper's flow likewise works over a shared prime m with a
// generator g). On top of it we build a batched Naor-Pinkas style
// (1,4)-OT whose four-message pattern matches the paper's Fig. 4 flow:
//
//  1. S -> R : mask element S = g^a            (paper step 1, COMM1)
//  2. R -> S : per-chunk R-list derived from the receiver's data (COMM2)
//  3. S -> R : encrypted 4-entry table Enc(M0) per chunk         (COMM3)
//  4. R -> S : result feedback share                              (COMM4)
//
// This package provides messages 1-3. It is the reference implementation
// of the paper's flow, not the deployed one: mpc.Party.DReLU runs on
// random (1,4)-OTs precomputed by the trusted dealer and derandomized
// online with two messages and no exponentiation. The flow here is what
// hwmodel prices on the paper's FPGA and what BenchmarkOT1of4Batch and
// the serving benchmark's OT probe time. The construction is
// semi-honest simulation grade: the field is small and the
// key-derivation hash is a non-cryptographic mixer (see DESIGN.md §1 for
// the substitution rationale).
package ot

import "math/bits"

// P is the Mersenne prime 2^61 - 1, the group modulus.
const P uint64 = (1 << 61) - 1

// G is the fixed group generator used by both parties (paper: shared g).
const G uint64 = 7

// MulMod returns a*b mod P using Mersenne folding.
func MulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = (hi*8 + lo>>61)*2^61 + (lo & P)
	// and 2^61 ≡ 1 (mod P).
	sum := (hi<<3 | lo>>61) + (lo & P)
	if sum >= P {
		sum -= P
	}
	return sum
}

// AddMod returns a+b mod P for a, b < P.
func AddMod(a, b uint64) uint64 {
	s := a + b
	if s >= P {
		s -= P
	}
	return s
}

// PowMod returns base^exp mod P by square-and-multiply.
func PowMod(base, exp uint64) uint64 {
	base %= P
	result := uint64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result = MulMod(result, base)
		}
		base = MulMod(base, base)
		exp >>= 1
	}
	return result
}

// InvMod returns the multiplicative inverse of a mod P (a != 0), using
// Fermat's little theorem: a^(P-2).
func InvMod(a uint64) uint64 { return PowMod(a, P-2) }

// Mix derives a pseudo-random 64-bit pad from a group element and a domain
// tag. It is a SplitMix64-style finalizer — NOT a cryptographic hash; the
// simulator documents this substitution.
func Mix(key uint64, tag uint64) uint64 {
	z := key ^ (tag * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
