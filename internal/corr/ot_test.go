package corr

import (
	"strings"
	"testing"

	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// Suite for the random-OT kind and the packed PASCORR3 payloads: both
// halves must form valid (1,4)-OTs, survive encode/decode at exactly the
// packed size, and hostile dims or short packed payloads must be rejected
// behind a valid checksum.

// TestOTHalvesAreValidOTs checks every instance of a BuildPair: the
// receiver's m_c must be the sender's message at the receiver's choice c.
func TestOTHalvesAreValidOTs(t *testing.T) {
	const n = 257
	s0, s1, err := BuildPair(Tape{{Kind: mpc.KindOT, N: n}}, rng.New(41), 41)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := s0.Take(mpc.Demand{Kind: mpc.KindOT, N: n})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s1.Take(mpc.Demand{Kind: mpc.KindOT, N: n})
	if err != nil {
		t.Fatal(err)
	}
	snd, rcv := c0.OT, c1.OT
	var seen [4]int
	for i := range snd {
		c := rcv[i] & 3
		seen[c]++
		if rcv[i]>>4 != 0 {
			t.Fatalf("instance %d: receiver half %#x uses more than 4 bits", i, rcv[i])
		}
		if mc := (snd[i] >> (2 * c)) & 3; mc != rcv[i]>>2 {
			t.Fatalf("instance %d: receiver m_c=%d, sender m_%d=%d", i, rcv[i]>>2, c, mc)
		}
	}
	for c, k := range seen {
		if k == 0 {
			t.Fatalf("choice %d never drawn in %d instances", c, n)
		}
	}
}

// TestOTFileRoundTripPacked round-trips an OT + bit-triple store for both
// parties and pins the packed payload sizes: party 0's OT half is a byte
// per instance, party 1's a nibble, and bit triples 8 bits per byte.
func TestOTFileRoundTripPacked(t *testing.T) {
	tape := Tape{{Kind: mpc.KindOT, N: 33}, {Kind: mpc.KindBits, N: 13}}
	header := len(storeMagic) + 1 + 4 + 4
	for party, otBytes := range []int{33, 17} {
		s, err := BuildSeeded(tape, party, 808)
		if err != nil {
			t.Fatal(err)
		}
		enc := s.Encode()
		want := header + (1 + 4 + otBytes) + (1 + 4 + 3*2) + 4
		if len(enc) != want {
			t.Fatalf("party %d: encoded %d bytes, want %d (packed layout)", party, len(enc), want)
		}
		loaded, err := Decode(enc)
		if err != nil {
			t.Fatalf("party %d: %v", party, err)
		}
		if !loaded.Tape().Equal(tape) {
			t.Fatalf("party %d: tape not preserved", party)
		}
		drainAgainstDealer(t, loaded, 808, tape)
	}
}

// TestOTDecodeRejectsHostile covers the OT kind on the decode path: a
// declared instance count out of range, or one larger than the packed
// payload actually present, fails descriptively with a valid checksum.
func TestOTDecodeRejectsHostile(t *testing.T) {
	nOff := len(storeMagic) + 1 + 4 + 4 + 1 // first entry's n field
	setN := func(enc []byte, n uint32) {
		enc[nOff], enc[nOff+1], enc[nOff+2], enc[nOff+3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		reseal(enc)
	}
	for party := 0; party < 2; party++ {
		s, err := BuildSeeded(Tape{{Kind: mpc.KindOT, N: 33}}, party, 5)
		if err != nil {
			t.Fatal(err)
		}
		good := s.Encode()
		for _, n := range []uint32{0, 1<<28 + 1, 1 << 31} {
			bad := append([]byte(nil), good...)
			setN(bad, n)
			if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("party %d: hostile OT count %d: %v", party, n, err)
			}
		}
		// 35 instances need one more packed byte than 33 on either party.
		bad := append([]byte(nil), good...)
		setN(bad, 35)
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("party %d: short OT payload: %v", party, err)
		}
	}
}

// TestPackedPayloadTruncation drops the last payload byte of a packed
// entry (bits or receiver OT) and reseals: the decoder must report the
// truncated entry rather than misread the checksum as payload.
func TestPackedPayloadTruncation(t *testing.T) {
	for _, dem := range []mpc.Demand{{Kind: mpc.KindBits, N: 13}, {Kind: mpc.KindOT, N: 33}} {
		s, err := BuildSeeded(Tape{dem}, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		good := s.Encode()
		cut := append(append([]byte(nil), good[:len(good)-5]...), good[len(good)-4:]...)
		reseal(cut)
		_, err = Decode(cut)
		if err == nil || !strings.Contains(err.Error(), "truncated in entry 0 ("+dem.String()+") payload") {
			t.Fatalf("%s: truncated packed payload: %v", dem, err)
		}
	}
}
