package mpc_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pasnet/internal/corr"
	"pasnet/internal/fixed"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
	"pasnet/internal/transport"
)

// DReLU suite for the precomputed-OT protocol: the exact online traffic
// per call, sign extraction on raw ring words at the two's-complement
// boundaries under adversarial share splits, and store-fed ≡ live
// bit-identity for the random-OT kind.

// frameLog records the frames one party sends and receives, in order.
type frameLog struct {
	transport.Conn
	mu         sync.Mutex
	sent, recv []string
}

func (f *frameLog) note(dst *[]string, kind string, n int) {
	f.mu.Lock()
	*dst = append(*dst, fmt.Sprintf("%s%d", kind, n))
	f.mu.Unlock()
}

func (f *frameLog) SendBytes(b []byte) error {
	f.note(&f.sent, "b", len(b))
	return f.Conn.SendBytes(b)
}

func (f *frameLog) RecvBytes() ([]byte, error) {
	b, err := f.Conn.RecvBytes()
	f.note(&f.recv, "b", len(b))
	return b, err
}

func (f *frameLog) SendUint64s(xs []uint64) error {
	f.note(&f.sent, "u", len(xs))
	return f.Conn.SendUint64s(xs)
}

func (f *frameLog) RecvUint64s() ([]uint64, error) {
	xs, err := f.Conn.RecvUint64s()
	f.note(&f.recv, "u", len(xs))
	return xs, err
}

// TestDReLUOnlineTraffic pins DReLU's wire traffic per call for n
// elements: party 1 sends ⌈32n/4⌉ bytes of packed choice offsets, party 0
// answers 32n bytes, then each of the 5 AND-tree levels exchanges one
// byte frame of packed openings. An online public-key OT (group elements
// as uint64 frames) or byte-per-bit openings fail this test.
func TestDReLUOnlineTraffic(t *testing.T) {
	const n = 5
	m := n * mpc.NumChunks
	var tree []string
	for half := mpc.NumChunks / 2; half >= 1; half /= 2 {
		tree = append(tree, fmt.Sprintf("b%d", mpc.PackedLen(2*2*n*half)))
	}
	want := [2]struct{ sent, recv []string }{
		{sent: append([]string{fmt.Sprintf("b%d", m)}, tree...), recv: append([]string{fmt.Sprintf("b%d", (m+3)/4)}, tree...)},
		{sent: append([]string{fmt.Sprintf("b%d", (m+3)/4)}, tree...), recv: append([]string{fmt.Sprintf("b%d", m)}, tree...)},
	}
	var logs [2]*frameLog
	var tapes [2]corr.Tape
	err := mpc.RunProtocol(17, fixed.Default64(), func(p *mpc.Party) error {
		log := &frameLog{Conn: p.Conn}
		p.Conn = log
		rec := corr.NewRecorder(p.Dealer)
		p.Source = rec
		if _, err := p.DReLU(mpc.NewShare(n)); err != nil {
			return err
		}
		logs[p.ID] = log
		tapes[p.ID] = rec.Tape()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, l := range logs {
		if fmt.Sprint(l.sent) != fmt.Sprint(want[id].sent) || fmt.Sprint(l.recv) != fmt.Sprint(want[id].recv) {
			t.Errorf("party %d frames: sent %v recv %v, want sent %v recv %v", id, l.sent, l.recv, want[id].sent, want[id].recv)
		}
	}
	wantTape := corr.Tape{{Kind: mpc.KindOT, N: m}}
	for half := mpc.NumChunks / 2; half >= 1; half /= 2 {
		wantTape = append(wantTape, mpc.Demand{Kind: mpc.KindBits, N: 2 * n * half})
	}
	for id, tp := range tapes {
		if !tp.Equal(wantTape) {
			t.Errorf("party %d demand tape %v, want %v", id, tp, wantTape)
		}
	}
}

// TestDReLURingBoundaries runs DReLU on raw ring words at the sign and
// carry boundaries, each split into shares with party 0 holding
// adversarial values (0, ±1, the 2^63 edges, random), under the live
// dealer and under a preprocessed store; both must give the exact sign
// bit and the store run must match the live run share for share.
func TestDReLURingBoundaries(t *testing.T) {
	words := []uint64{0, 1, 1<<62 - 1, 1 << 62, 1<<63 - 1, 1 << 63, 1<<64 - 1}
	r := rand.New(rand.NewSource(3))
	splits := []uint64{0, 1, 1<<63 - 1, 1 << 63, 1<<64 - 1, r.Uint64(), r.Uint64()}
	var xs, s0 []uint64
	for _, x := range words {
		for _, a := range splits {
			xs = append(xs, x)
			s0 = append(s0, a)
		}
	}
	n := len(xs)
	const seed = 29

	run := func(src [2]mpc.CorrelationSource) ([2]mpc.BitShare, corr.Tape) {
		t.Helper()
		var out [2]mpc.BitShare
		var tape corr.Tape
		err := mpc.RunProtocol(seed, fixed.Default64(), func(p *mpc.Party) error {
			var rec *corr.Recorder
			if src[p.ID] != nil {
				p.Source = src[p.ID]
			} else if p.ID == 0 {
				rec = corr.NewRecorder(p.Dealer)
				p.Source = rec
			}
			sh := mpc.NewShare(n)
			for i := range sh.V {
				if p.ID == 0 {
					sh.V[i] = s0[i]
				} else {
					sh.V[i] = xs[i] - s0[i]
				}
			}
			bits, err := p.DReLU(sh)
			if err != nil {
				return err
			}
			out[p.ID] = bits
			if rec != nil {
				tape = rec.Tape()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, tape
	}
	check := func(name string, got [2]mpc.BitShare) {
		t.Helper()
		for i, x := range xs {
			want := byte(1)
			if x>>63 == 1 {
				want = 0
			}
			if b := got[0][i] ^ got[1][i]; b != want {
				t.Errorf("%s: drelu(%#x) with party-0 share %#x = %d, want %d", name, x, s0[i], b, want)
			}
		}
	}

	live, tape := run([2]mpc.CorrelationSource{})
	check("live", live)
	p0, p1, err := corr.BuildPair(tape, rng.New(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := run([2]mpc.CorrelationSource{p0, p1})
	check("store", stored)
	for id := range live {
		for i := range live[id] {
			if live[id][i] != stored[id][i] {
				t.Fatalf("party %d bit %d: store-fed share %d != live %d", id, i, stored[id][i], live[id][i])
			}
		}
	}
	if p0.Remaining() != 0 || p1.Remaining() != 0 {
		t.Fatalf("stores not drained: %d / %d left", p0.Remaining(), p1.Remaining())
	}
}

// TestPackBitsLayout pins the wire/disk packing: LSB first, bit i in byte
// i/8, padding bits ignored on unpack.
func TestPackBitsLayout(t *testing.T) {
	bits := mpc.BitShare{1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1}
	packed := mpc.PackBits(bits)
	if len(packed) != mpc.PackedLen(len(bits)) || len(packed) != 2 || packed[0] != 0x8d || packed[1] != 0x05 {
		t.Fatalf("PackBits = %x, want 8d05", packed)
	}
	packed[1] |= 0xf8
	got := mpc.UnpackBits(packed, len(bits))
	if fmt.Sprint(got) != fmt.Sprint(bits) {
		t.Fatalf("UnpackBits = %v, want %v", got, bits)
	}
}
