package mpc

import (
	"fmt"

	"pasnet/internal/kernel"
)

// CorrelationSource supplies one party's halves of the offline-phase
// correlated randomness (Beaver triples and friends), one Demand at a
// time. The live Dealer implements it by generating on demand inside the
// measured online path; the preprocessing store (internal/corr) implements
// it by handing out material generated ahead of time, which is the
// standard 2PC deployment split the paper's online latency numbers assume.
// Both share one generator (Generator), so a store built from seed S
// hands out exactly what a live NewDealer(S, party) would.
//
// Implementations that can run dry or that validate geometry return a
// descriptive error; the Party op wraps it with protocol context and both
// parties fail symmetrically before any bytes hit the transport, so a
// misconfigured store surfaces as a clean error instead of a mid-protocol
// desync.
type CorrelationSource interface {
	// Take returns this party's halves of the correlation d describes.
	Take(d Demand) (Correlation, error)
}

// Correlation is one party's halves of one demand's material: additive
// ring halves for the arithmetic kinds, XOR halves for bit triples, and
// one byte per instance for random OTs.
type Correlation struct {
	// A, B, Z are the ring halves; B is nil for square pairs and the
	// fixed-mask kinds (their weight-side mask is the session's fixed b).
	A, B, Z []uint64
	// BA, BB, BC are the XOR halves of a bit-triple batch (c = a AND b).
	BA, BB, BC BitShare
	// OT holds this party's half of each random (1,4)-OT: the sender
	// (party 0) holds m0|m1<<2|m2<<4|m3<<6, the receiver (party 1) holds
	// c|m_c<<2.
	OT []byte
}

// Kind identifies one dealer correlation family. The values are written
// into preprocessed store files, so they must never be renumbered.
type Kind uint8

const (
	// KindHadamard is an elementwise Beaver triple (z = a ⊙ b).
	KindHadamard Kind = iota + 1
	// KindSquare is a Beaver square pair (z = a ⊙ a).
	KindSquare
	// KindMatMul is a matrix Beaver triple (Z = A @ B).
	KindMatMul
	// KindConv is a convolution Beaver triple (Z = conv(A, B)).
	KindConv
	// KindBits is a batch of GMW AND triples over XOR-shared bits.
	KindBits
	// KindMatMulFixedB is a matmul pair (a, z = a@b) against a
	// session-pinned fixed weight mask b (see fixedmask.go). Only the
	// activation mask a is fresh per demand; b is derived out-of-band from
	// the dealer seed and the Demand's Mask slot.
	KindMatMulFixedB
	// KindConvFixedB is the convolution analogue of KindMatMulFixedB.
	KindConvFixedB
	// KindOT is a batch of random (1,4)-OTs with 2-bit messages, the
	// precomputed OTs DReLU derandomizes online (see otHalf).
	KindOT
)

// String names the kind for demand diagnostics.
func (k Kind) String() string {
	switch k {
	case KindHadamard:
		return "hadamard"
	case KindSquare:
		return "square"
	case KindMatMul:
		return "matmul"
	case KindConv:
		return "conv"
	case KindBits:
		return "bits"
	case KindMatMulFixedB:
		return "matmul-fixedb"
	case KindConvFixedB:
		return "conv-fixedb"
	case KindOT:
		return "ot"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Demand records one correlation request with its full geometry. It is
// comparable, so tape equality and store validation are plain ==.
type Demand struct {
	// Kind is the correlation family.
	Kind Kind
	// N is the element count for hadamard, square, bit and OT demands.
	N int
	// M, K, P are the matmul dimensions (M×K @ K×P) for the matmul kinds.
	M, K, P int
	// Conv is the convolution geometry for the conv kinds.
	Conv ConvDims
	// Mask is the fixed-mask slot id for the FixedB kinds (zero otherwise).
	Mask int
}

// String renders the demand with its geometry, the vocabulary of store
// mismatch errors.
func (d Demand) String() string {
	switch d.Kind {
	case KindMatMul:
		return fmt.Sprintf("matmul(%dx%d @ %dx%d)", d.M, d.K, d.K, d.P)
	case KindMatMulFixedB:
		return fmt.Sprintf("matmul-fixedb(mask=%d, %dx%d @ %dx%d)", d.Mask, d.M, d.K, d.K, d.P)
	case KindConv:
		c := d.Conv
		return fmt.Sprintf("conv(N=%d C=%d %dx%d, k=%dx%dx%d s=%d p=%d g=%d)",
			c.N, c.InC, c.H, c.W, c.OutC, c.KH, c.KW, c.Stride, c.Pad, c.Groups)
	case KindConvFixedB:
		c := d.Conv
		return fmt.Sprintf("conv-fixedb(mask=%d, N=%d C=%d %dx%d, k=%dx%dx%d s=%d p=%d g=%d)",
			d.Mask, c.N, c.InC, c.H, c.W, c.OutC, c.KH, c.KW, c.Stride, c.Pad, c.Groups)
	default:
		return fmt.Sprintf("%s(n=%d)", d.Kind, d.N)
	}
}

// Lens returns the flat element counts (a, b, z) of the demand's
// material: b is 0 for square pairs and the fixed-mask kinds; bit batches
// report N for all three; OT batches report 0s (their material is one
// byte per instance).
func (d Demand) Lens() (la, lb, lz int) {
	switch d.Kind {
	case KindHadamard, KindBits:
		return d.N, d.N, d.N
	case KindSquare:
		return d.N, 0, d.N
	case KindMatMul:
		return d.M * d.K, d.K * d.P, d.M * d.P
	case KindMatMulFixedB:
		return d.M * d.K, 0, d.M * d.P
	case KindConv:
		return d.Conv.InLen(), d.Conv.KLen(), d.Conv.OutLen()
	case KindConvFixedB:
		return d.Conv.InLen(), 0, d.Conv.OutLen()
	default:
		return 0, 0, 0
	}
}

// fixedMaskLen returns the plain fixed-mask length of a FixedB demand
// (the weight-side element count b, never part of the correlation).
func (d Demand) fixedMaskLen() int {
	if d.Kind == KindMatMulFixedB {
		return d.K * d.P
	}
	return d.Conv.KLen()
}

// maxEntryWords caps a single demand's element count. It bounds both the
// store generator and — more importantly — the store decoder, so a corrupt
// or hostile store file can never request a pathological allocation.
const maxEntryWords = 1 << 28

// Validate rejects malformed demands before any allocation happens, on
// both the store generation and the store decode path.
func (d Demand) Validate() error {
	switch d.Kind {
	case KindHadamard, KindSquare, KindBits, KindOT:
		// A zero-length demand never occurs in practice (every share in
		// the engine has positive size), and requiring real payload per
		// entry lets the decoder bound its entry-table allocation by the
		// file's actual size.
		if d.N < 1 || d.N > maxEntryWords {
			return fmt.Errorf("element count %d out of range", d.N)
		}
	case KindMatMul, KindMatMulFixedB:
		if d.M < 1 || d.K < 1 || d.P < 1 ||
			d.M > maxEntryWords/d.K || d.K > maxEntryWords/d.P || d.M > maxEntryWords/d.P {
			return fmt.Errorf("matmul dims %dx%dx%d out of range", d.M, d.K, d.P)
		}
	case KindConv, KindConvFixedB:
		c := d.Conv
		if c.N < 1 || c.InC < 1 || c.H < 1 || c.W < 1 || c.OutC < 1 ||
			c.KH < 1 || c.KW < 1 || c.Stride < 1 || c.Pad < 0 || c.Groups < 0 {
			return fmt.Errorf("conv geometry %s malformed", d)
		}
		// Every field is individually capped before any product is formed:
		// Lens multiplies four of them, and a hostile file with fields
		// near 2^31 would otherwise overflow the products right past the
		// `> maxEntryWords` checks (negative lengths panic makeslice).
		for _, v := range []int{c.N, c.InC, c.H, c.W, c.OutC, c.KH, c.KW, c.Stride, c.Pad, c.Groups} {
			if v > maxEntryWords {
				return fmt.Errorf("conv geometry %s: dimension %d exceeds cap", d, v)
			}
		}
		g := kernel.NormGroups(c.Groups)
		if c.InC%g != 0 || c.OutC%g != 0 {
			return fmt.Errorf("conv geometry %s: groups %d do not divide channels", d, g)
		}
		oh, ow := c.OutHW()
		if oh < 1 || ow < 1 {
			return fmt.Errorf("conv geometry %s yields empty output", d)
		}
		if !mulFits(c.N, c.InC, c.H, c.W) ||
			!mulFits(c.OutC, c.InC/g, c.KH, c.KW) ||
			!mulFits(c.N, c.OutC, oh, ow) {
			return fmt.Errorf("conv geometry %s exceeds size cap", d)
		}
	default:
		return fmt.Errorf("unknown correlation kind %d", uint8(d.Kind))
	}
	return d.validateMask()
}

// validateMask bounds the fixed-mask slot of FixedB demands and insists
// the non-fixed kinds carry none (a nonzero Mask on a plain triple means
// a miswritten or corrupted tape).
func (d Demand) validateMask() error {
	switch d.Kind {
	case KindMatMulFixedB, KindConvFixedB:
		if d.Mask < 0 || d.Mask > MaxFixedMask {
			return fmt.Errorf("fixed mask slot %d out of range [0, %d]", d.Mask, MaxFixedMask)
		}
	default:
		if d.Mask != 0 {
			return fmt.Errorf("%s demand carries fixed mask slot %d", d.Kind, d.Mask)
		}
	}
	return nil
}

// mulFits reports whether the product of the (non-negative) factors stays
// within maxEntryWords, checking overflow at every step.
func mulFits(vs ...int) bool {
	p := 1
	for _, v := range vs {
		if v == 0 {
			return true
		}
		if p > maxEntryWords/v {
			return false
		}
		p *= v
	}
	return true
}
