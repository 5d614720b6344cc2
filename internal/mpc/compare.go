package mpc

import (
	"fmt"
	"math/bits"
)

// Comparison constants. The paper's Sec. III-C splits 32-bit values into
// U = 16 parts of 2 bits; our executable ring is 64 bits wide (see
// fixed.Codec64), so the comparison runs over 32 digits of 2 bits with the
// same per-digit (1,4)-OT truth tables. The hardware model keeps the
// paper's 16-chunk costs.
const (
	// ChunkBits is the width of one comparison digit.
	ChunkBits = 2
	// NumChunks is the number of digits per value.
	NumChunks = 32
)

// DReLU computes XOR shares of the derivative of ReLU: the bit (x >= 0)
// for every element of x, where x is interpreted in two's complement.
//
// Reduction: msb(x0 + x1) = msb(x0) ⊕ msb(x1) ⊕ carry, where carry is
// the carry out of the low-63-bit addition, i.e. low63(x0) + low63(x1) >=
// 2^63. That inequality is a millionaires' comparison between u =
// low63(x0), held by party 0, and t = 2^63 − low63(x1), held by party 1:
// carry = (u > t−1). The comparison runs digit-by-digit over 2-bit
// chunks: party 0 offers a (1,4)-OT truth table of XOR-masked (gt, eq)
// digit bits per chunk, party 1 picks its digit's entry, then a
// logarithmic prefix tree of AND gates combines the digit shares (paper
// Sec. II-C / III-C).
//
// The OTs run on dealer-precomputed random OTs (Beaver's derandomization)
// instead of the paper's public-key Fig. 4 flow, so the online phase has
// no exponentiation and two messages: party 1 sends its choice offsets
// d = (choice − c) mod 4 packed four per byte, party 0 answers one byte
// per instance, y_g = T[g] ⊕ m_{(g−d) mod 4}, and party 1 unpads
// y_choice ⊕ m_c. Party 0 sees only uniform offsets; party 1 sees the
// three other entries under pads it does not hold (DESIGN.md §2).
func (p *Party) DReLU(x Share) (BitShare, error) {
	n := x.Len()
	if n == 0 {
		return BitShare{}, nil
	}
	m := n * NumChunks
	c, err := p.corr().Take(Demand{Kind: KindOT, N: m})
	if err != nil {
		return nil, fmt.Errorf("mpc: drelu random ots: %w", err)
	}
	ots := c.OT
	// gtSh/eqSh hold XOR shares of per-chunk comparison digits, laid out
	// as [element][chunk] flattened.
	gtSh := make(BitShare, m)
	eqSh := make(BitShare, m)

	if p.ID == 0 {
		// Party 0 is the OT sender: for each element and chunk it builds a
		// masked truth table over the receiver's possible digit values,
		// entry g in bits 2g..2g+1.
		tables := make([]byte, m)
		for j := 0; j < n; j++ {
			u := x.V[j] &^ (1 << 63) // low63(x0)
			for c := 0; c < NumChunks; c++ {
				uc := byte(u>>(ChunkBits*uint(c))) & 3
				rgt := byte(p.Rand.Uint64()) & 1
				req := byte(p.Rand.Uint64()) & 1
				idx := j*NumChunks + c
				gtSh[idx] = rgt
				eqSh[idx] = req
				var tab byte
				for g := byte(0); g < 4; g++ {
					var gt, eq byte
					if uc > g {
						gt = 1
					}
					if uc == g {
						eq = 1
					}
					tab |= ((gt ^ rgt) | (eq^req)<<1) << (2 * g)
				}
				tables[idx] = tab
			}
		}
		offs, err := p.Conn.RecvBytes()
		if err != nil {
			return nil, fmt.Errorf("mpc: drelu ot offsets: %w", err)
		}
		if len(offs) != (m+3)/4 {
			return nil, fmt.Errorf("mpc: drelu ot offsets length %d, want %d", len(offs), (m+3)/4)
		}
		// Rotating the pad byte left by 2d puts m_{(g−d) mod 4} in slot g.
		for i := range tables {
			d := (offs[i>>2] >> (2 * (i & 3))) & 3
			tables[i] ^= bits.RotateLeft8(ots[i], int(2*d))
		}
		if err := p.Conn.SendBytes(tables); err != nil {
			return nil, fmt.Errorf("mpc: drelu ot reply: %w", err)
		}
	} else {
		// Party 1 is the OT receiver with choices t' = 2^63 − 1 − low63(x1),
		// digit by digit.
		choices := make([]byte, m)
		offs := make([]byte, (m+3)/4)
		for j := 0; j < n; j++ {
			t := (uint64(1)<<63 - 1) - (x.V[j] &^ (1 << 63))
			for c := 0; c < NumChunks; c++ {
				idx := j*NumChunks + c
				choice := byte(t>>(ChunkBits*uint(c))) & 3
				choices[idx] = choice
				offs[idx>>2] |= ((choice - ots[idx]) & 3) << (2 * (idx & 3))
			}
		}
		if err := p.Conn.SendBytes(offs); err != nil {
			return nil, fmt.Errorf("mpc: drelu ot offsets: %w", err)
		}
		reply, err := p.Conn.RecvBytes()
		if err != nil {
			return nil, fmt.Errorf("mpc: drelu ot reply: %w", err)
		}
		if len(reply) != m {
			return nil, fmt.Errorf("mpc: drelu ot reply length %d, want %d", len(reply), m)
		}
		for i, choice := range choices {
			b := (reply[i]>>(2*choice))&3 ^ ots[i]>>2
			gtSh[i] = b & 1
			eqSh[i] = b >> 1
		}
	}

	// Prefix combine: repeatedly merge adjacent digit pairs
	// (hi = 2i+1, lo = 2i):
	//   gt' = gt_hi ⊕ (eq_hi ∧ gt_lo)     (hi digits dominate)
	//   eq' = eq_hi ∧ eq_lo
	// Both ANDs of a level are batched into a single exchange.
	width := NumChunks
	for width > 1 {
		half := width / 2
		aCat := make(BitShare, 0, 2*n*half)
		bCat := make(BitShare, 0, 2*n*half)
		for j := 0; j < n; j++ {
			base := j * width
			for i := 0; i < half; i++ {
				aCat = append(aCat, eqSh[base+2*i+1])
				bCat = append(bCat, gtSh[base+2*i])
			}
		}
		for j := 0; j < n; j++ {
			base := j * width
			for i := 0; i < half; i++ {
				aCat = append(aCat, eqSh[base+2*i+1])
				bCat = append(bCat, eqSh[base+2*i])
			}
		}
		prod, err := p.bitAnd(aCat, bCat)
		if err != nil {
			return nil, fmt.Errorf("mpc: drelu combine: %w", err)
		}
		newGt := make(BitShare, n*half)
		newEq := make(BitShare, n*half)
		for j := 0; j < n; j++ {
			base := j * width
			for i := 0; i < half; i++ {
				newGt[j*half+i] = gtSh[base+2*i+1] ^ prod[j*half+i]
				newEq[j*half+i] = prod[n*half+j*half+i]
			}
		}
		gtSh, eqSh = newGt, newEq
		width = half
	}

	// Assemble: neg = msb(own share) ⊕ carry; drelu = ¬neg, with the
	// negation folded into party 0's share.
	out := make(BitShare, n)
	for j := 0; j < n; j++ {
		msb := byte(x.V[j] >> 63)
		out[j] = msb ^ gtSh[j]
		if p.ID == 0 {
			out[j] ^= 1
		}
	}
	return out, nil
}

// Compare computes XOR shares of (x >= y) elementwise.
func (p *Party) Compare(x, y Share) (BitShare, error) {
	return p.DReLU(p.Sub(x, y))
}
