package mpc

import (
	"fmt"

	"pasnet/internal/rng"
)

// Dealer is the trusted third party of the offline phase (paper Sec. II-B:
// "an extra Beaver triple should be generated"). It is implemented as a
// deterministic generator: both parties construct a Dealer from the same
// seed and consume correlations in the same program order, so each party
// can locally derive its own half of every correlation without any online
// dealer traffic — the standard common-seed trusted-dealer simulation used
// by CrypTen-style systems.
//
// The Dealer is the always-fresh CorrelationSource: generation happens at
// consumption time, charged to whoever's clock is running. A Dealer
// instance belongs to one party and is not safe for concurrent use.
type Dealer struct {
	gen   *Generator
	party int
}

// NewDealer returns party's endpoint of a dealer stream. Both parties must
// use the same seed and distinct party IDs (0 and 1).
func NewDealer(seed uint64, party int) *Dealer {
	if party != 0 && party != 1 {
		panic(fmt.Sprintf("mpc: party must be 0 or 1, got %d", party))
	}
	return &Dealer{gen: NewGenerator(rng.New(seed), seed), party: party}
}

// Seed returns the shared dealer-stream seed this endpoint was built from.
// Fixed weight masks are pinned to it: an opened F = W−b is only valid
// against the dealer stream whose seed minted b.
func (d *Dealer) Seed() uint64 { return d.gen.maskSeed }

// Take implements CorrelationSource. Party 0's half is only masks, so
// its endpoint never computes a triple product.
func (d *Dealer) Take(dem Demand) (Correlation, error) {
	dr, err := d.gen.Next(dem)
	if err != nil {
		return Correlation{}, err
	}
	return dr.Half(d.party), nil
}

// Generator is the one definition of every correlation kind's draw order,
// shared by the live Dealer and the preprocessing store builder
// (internal/corr) — which is what makes a store built from seed S hand out
// exactly the material a live NewDealer(S, party) would.
//
// Per demand it draws from the main stream the plain operands first and
// then the additive masks that split them; bit triples interleave their
// (a, b) bits before the three XOR masks, and a random-OT batch takes one
// word per instance. Fixed weight masks never touch the main stream (see
// fixedmask.go). A Generator is not safe for concurrent use.
type Generator struct {
	r *rng.RNG
	// maskSeed is the pair's dealer seed the fixed weight masks derive
	// from; it may differ from r's stream (see corr.Build).
	maskSeed uint64
	// masks caches the fixed weight masks by slot id (see fixedMask).
	masks map[int]*fixedMask
}

// NewGenerator returns a generator drawing from r, deriving fixed weight
// masks from maskSeed.
func NewGenerator(r *rng.RNG, maskSeed uint64) *Generator {
	return &Generator{r: r, maskSeed: maskSeed}
}

// Draw is one demand's randomness, drawn but not yet split: the plain
// operands and the masks that become party 0's half. Half derives either
// party's correlation from it without touching the stream again.
type Draw struct {
	d Demand
	// plainA, plainB are the ring operands; plainB aliases plainA for
	// square pairs and is the cached fixed mask b for the FixedB kinds.
	plainA, plainB      []uint64
	maskA, maskB, maskZ []uint64
	// bitA, bitB, maskBA, maskBB, maskBC are a bit-triple batch's plain
	// bits and XOR masks.
	bitA, bitB             BitShare
	maskBA, maskBB, maskBC BitShare
	// ot holds both parties' halves of a random-OT batch (see otHalf).
	ot [2][]byte
}

// Next draws the randomness of one demand. It fails only on a fixed mask
// slot that is out of range or pinned to another length, or an unknown
// kind; it does not otherwise validate the geometry (see Demand.Validate).
func (g *Generator) Next(d Demand) (*Draw, error) {
	la, lb, lz := d.Lens()
	dr := &Draw{d: d}
	switch d.Kind {
	case KindHadamard, KindMatMul, KindConv:
		dr.plainA, dr.plainB = g.words(la), g.words(lb)
		dr.maskA, dr.maskB, dr.maskZ = g.words(la), g.words(lb), g.words(lz)
	case KindSquare:
		dr.plainA = g.words(la)
		dr.plainB = dr.plainA
		dr.maskA, dr.maskZ = g.words(la), g.words(lz)
	case KindMatMulFixedB, KindConvFixedB:
		fm, err := g.fixedMask(d.Mask, d.fixedMaskLen())
		if err != nil {
			return nil, err
		}
		dr.plainA, dr.plainB = g.words(la), fm.plain
		dr.maskA, dr.maskZ = g.words(la), g.words(lz)
	case KindBits:
		dr.bitA, dr.bitB = make(BitShare, d.N), make(BitShare, d.N)
		for i := range dr.bitA {
			dr.bitA[i] = g.bit()
			dr.bitB[i] = g.bit()
		}
		dr.maskBA, dr.maskBB, dr.maskBC = g.bits(d.N), g.bits(d.N), g.bits(d.N)
	case KindOT:
		dr.ot = [2][]byte{make([]byte, d.N), make([]byte, d.N)}
		for i := range d.N {
			w := g.r.Uint64()
			dr.ot[0][i], dr.ot[1][i] = otHalf(w, 0), otHalf(w, 1)
		}
	default:
		return nil, fmt.Errorf("mpc: unknown correlation kind %d", uint8(d.Kind))
	}
	return dr, nil
}

func (g *Generator) words(n int) []uint64 {
	out := make([]uint64, n)
	g.r.FillUint64(out)
	return out
}

func (g *Generator) bit() byte { return byte(g.r.Uint64()) & 1 }

func (g *Generator) bits(n int) BitShare {
	out := make(BitShare, n)
	for i := range out {
		out[i] = g.bit()
	}
	return out
}

// Half returns party's correlation. Party 0's ring and bit halves are the
// masks themselves (aliased, no work); party 1's are the plain values
// minus (or XOR) the masks, and its z half needs the actual triple
// product. Half never touches the stream, so the preprocessing store runs
// party 1's halves — the costly ones — in parallel; it is safe to call
// concurrently on distinct draws.
func (dr *Draw) Half(party int) Correlation {
	switch dr.d.Kind {
	case KindOT:
		return Correlation{OT: dr.ot[party]}
	case KindBits:
		if party == 0 {
			return Correlation{BA: dr.maskBA, BB: dr.maskBB, BC: dr.maskBC}
		}
		c := make(BitShare, len(dr.bitA))
		for i := range c {
			c[i] = (dr.bitA[i] & dr.bitB[i]) ^ dr.maskBC[i]
		}
		return Correlation{BA: xorBits(dr.bitA, dr.maskBA), BB: xorBits(dr.bitB, dr.maskBB), BC: c}
	}
	if party == 0 {
		return Correlation{A: dr.maskA, B: dr.maskB, Z: dr.maskZ}
	}
	c := Correlation{A: subWords(dr.plainA, dr.maskA), Z: make([]uint64, len(dr.maskZ))}
	if dr.maskB != nil {
		c.B = subWords(dr.plainB, dr.maskB)
	}
	product(c.Z, dr.plainA, dr.plainB, dr.d)
	ringSub(c.Z, c.Z, dr.maskZ)
	return c
}

// product computes z = a∘b for the demand's bilinear op: the one
// kind→kernel dispatch of triple generation.
func product(z, a, b []uint64, d Demand) {
	switch d.Kind {
	case KindHadamard, KindSquare:
		ringMul(z, a, b)
	case KindMatMul, KindMatMulFixedB:
		ringMatMul(z, a, b, d.M, d.K, d.P)
	case KindConv, KindConvFixedB:
		ringConv2D(z, a, b, d.Conv)
	}
}

// otHalf maps one dealer word w to party's half of a random (1,4)-OT over
// 2-bit messages: the sender (party 0) gets m0|m1<<2|m2<<4|m3<<6 with
// m_g = (w>>2g)&3, the receiver (party 1) gets c|m_c<<2 with
// c = (w>>8)&3.
func otHalf(w uint64, party int) byte {
	if party == 0 {
		return byte(w)
	}
	c := (w >> 8) & 3
	mc := (w >> (2 * c)) & 3
	return byte(c | mc<<2)
}

func subWords(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	ringSub(out, a, b)
	return out
}

func xorBits(a, b BitShare) BitShare {
	out := make(BitShare, len(a))
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}
