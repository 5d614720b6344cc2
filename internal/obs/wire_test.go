package obs

import (
	"strings"
	"testing"

	"pasnet/internal/transport"
)

// TestWireConnPerKindAccounting sends one frame of every kind through a
// wrapped pipe and checks both endpoints' per-kind byte and frame
// counters agree — the receive side mirrors the send side's payload
// conventions, so the two views of one link are symmetric.
func TestWireConnPerKindAccounting(t *testing.T) {
	ra, rb := New(), New()
	ca, cb := transport.Pipe()
	a := InstrumentConn(ca, ra, "side", "a")
	b := InstrumentConn(cb, rb, "side", "b")
	defer a.Close()
	defer b.Close()

	if err := a.SendUints([]uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendUint64s([]uint64{4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBytes([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := a.SendShape([]int{2, 3, 8, 8}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendModelShape("resnet18", []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvUints(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvUint64s(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvBytes(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvShape(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RecvModelShape(); err != nil {
		t.Fatal(err)
	}
	// Error frame through the reply path.
	if err := a.SendError("bad query"); err != nil {
		t.Fatal(err)
	}
	if _, msg, err := b.RecvReply(8); err != nil || msg != "bad query" {
		t.Fatalf("reply %q err %v", msg, err)
	}
	// Empty and over-long messages: both ends count the payload the
	// transport actually framed (the substitute, the 1024-byte prefix).
	long := strings.Repeat("x", 2000)
	for _, sent := range []string{"", long} {
		if err := a.SendError(sent); err != nil {
			t.Fatal(err)
		}
		want := transport.TruncError(sent)
		if _, msg, err := b.RecvReply(8); err != nil || msg != want {
			t.Fatalf("reply to a %d-byte error: got %d bytes, want %d (err %v)", len(sent), len(msg), len(want), err)
		}
	}
	// Successful reply through the same path.
	if err := a.SendUint64s([]uint64{7}); err != nil {
		t.Fatal(err)
	}
	if vals, msg, err := b.RecvReply(8); err != nil || msg != "" || len(vals) != 1 {
		t.Fatalf("reply vals %v msg %q err %v", vals, msg, err)
	}

	wantBytes := map[string]int64{
		"u32":   12,        // 3 × 4
		"u64":   16 + 8,    // [4 5] + the reply [7]
		"bytes": 5,         // "hello"
		"shape": 16,        // 4 dims × 4
		"model": 1 + 8 + 8, // len byte + "resnet18" + 2 dims × 4
		"err":   int64(len("bad query") + len("unspecified error") + 1024),
	}
	wantFrames := map[string]int64{"u32": 1, "u64": 2, "bytes": 1, "shape": 1, "model": 1, "err": 3}
	for kind, want := range wantBytes {
		if got := ra.Counter("pasnet_wire_sent_bytes_total", "side", "a", "kind", kind).Load(); got != want {
			t.Fatalf("a sent %s bytes %d, want %d", kind, got, want)
		}
		if got := rb.Counter("pasnet_wire_recv_bytes_total", "side", "b", "kind", kind).Load(); got != want {
			t.Fatalf("b recv %s bytes %d, want %d (mirror of a's sends)", kind, got, want)
		}
	}
	for kind, want := range wantFrames {
		if got := ra.Counter("pasnet_wire_sent_frames_total", "side", "a", "kind", kind).Load(); got != want {
			t.Fatalf("a sent %s frames %d, want %d", kind, got, want)
		}
		if got := rb.Counter("pasnet_wire_recv_frames_total", "side", "b", "kind", kind).Load(); got != want {
			t.Fatalf("b recv %s frames %d, want %d", kind, got, want)
		}
	}
	// The pure sender never flipped send→recv; the pure receiver never
	// sent at all. Neither completes a round.
	if got := a.Rounds(); got != 0 {
		t.Fatalf("sender-only conn counted %d rounds", got)
	}
	if got := b.Rounds(); got != 0 {
		t.Fatalf("receiver-only conn counted %d rounds", got)
	}
	// Nothing was received on a or sent on b.
	for _, kind := range []string{"u32", "u64", "bytes", "shape", "model", "err"} {
		if got := ra.Counter("pasnet_wire_recv_bytes_total", "side", "a", "kind", kind).Load(); got != 0 {
			t.Fatalf("a recv %s bytes %d, want 0", kind, got)
		}
		if got := rb.Counter("pasnet_wire_sent_bytes_total", "side", "b", "kind", kind).Load(); got != 0 {
			t.Fatalf("b sent %s bytes %d, want 0", kind, got)
		}
	}
}

// TestWireConnRounds pins the round semantics: a round completes on each
// send→recv direction flip, so N request/reply exchanges count N rounds
// on the requester, and a burst of sends before one receive still counts
// one round.
func TestWireConnRounds(t *testing.T) {
	reg := New()
	ca, cb := transport.Pipe()
	a := InstrumentConn(ca, reg, "side", "a")
	defer a.Close()
	defer cb.Close()

	const exchanges = 3
	for i := 0; i < exchanges; i++ {
		// Burst: two sends in one direction are one protocol round.
		if err := a.SendUint64s([]uint64{1}); err != nil {
			t.Fatal(err)
		}
		if err := a.SendUint64s([]uint64{2}); err != nil {
			t.Fatal(err)
		}
		if _, err := cb.RecvUint64s(); err != nil {
			t.Fatal(err)
		}
		if _, err := cb.RecvUint64s(); err != nil {
			t.Fatal(err)
		}
		if err := cb.SendUint64s([]uint64{3}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.RecvUint64s(); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Rounds(); got != exchanges {
		t.Fatalf("rounds %d, want %d", got, exchanges)
	}
	// Consecutive receives do not add rounds.
	if err := cb.SendUint64s([]uint64{4}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvUint64s(); err != nil {
		t.Fatal(err)
	}
	if got := a.Rounds(); got != exchanges {
		t.Fatalf("recv-after-recv bumped rounds to %d, want %d", got, exchanges)
	}
}

// TestWireConnStatsDelegate checks the wrapper passes the transport's
// own both-direction Stats through unchanged.
func TestWireConnStatsDelegate(t *testing.T) {
	ca, cb := transport.Pipe()
	a := InstrumentConn(ca, nil)
	defer a.Close()
	defer cb.Close()
	if err := a.SendUint64s([]uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.RecvUint64s(); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats(); got.BytesSent != 16 || got.MessagesSent != 1 {
		t.Fatalf("delegated stats %+v", got)
	}
	if got := cb.Stats(); got.BytesRecv != 16 || got.MessagesRecv != 1 {
		t.Fatalf("peer stats %+v", got)
	}
	if a.Inner() != ca {
		t.Fatal("Inner() does not return the wrapped conn")
	}
}
