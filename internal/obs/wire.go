package obs

import (
	"sync/atomic"
	"time"

	"pasnet/internal/transport"
)

// wireKindNames maps each transport frame kind byte to its metric
// label. Index positions must stay aligned with wireKindBytes.
var (
	wireKindBytes = [...]byte{'u', 'U', 'b', 's', 'm', 'e'}
	wireKindNames = [...]string{"u32", "u64", "bytes", "shape", "model", "err"}
)

const numWireKinds = len(wireKindBytes)

func kindIndex(k byte) int {
	for i, b := range wireKindBytes {
		if b == k {
			return i
		}
	}
	return 2 // unknown kinds accounted as opaque bytes
}

// Direction markers for round counting.
const (
	dirNone int32 = iota
	dirSend
	dirRecv
)

// WireConn wraps a transport.Conn and accounts traffic on a registry:
// payload bytes and frame counts per frame kind in both directions
// (pasnet_wire_{sent,recv}_{bytes,frames}_total{kind=...}), plus
// protocol rounds (pasnet_wire_rounds_total) — a round completes each
// time the link's direction flips from sending to receiving, so a
// request/reply pair counts one round and a batched flush of many
// sends followed by one receive also counts one.
//
// Receive-side byte counts mirror the send-side payload conventions
// (4 bytes per uint32, 8 per uint64, raw length for byte/shape/model/
// error frames) rather than re-reading the wire, so the two endpoints
// of a link report symmetric totals.
//
// Byte and frame counts are exact. The round count is not: it is a
// send→recv flip count, and every Beaver opening goes through the
// Exchange helpers, whose concurrent send and receive make the flip
// racy — one program's rounds per flush can read differently from run
// to run. Treat it as an estimate, never as a deterministic figure.
type WireConn struct {
	inner transport.Conn

	sentBytes  [numWireKinds]*Counter
	sentFrames [numWireKinds]*Counter
	recvBytes  [numWireKinds]*Counter
	recvFrames [numWireKinds]*Counter
	rounds     *Counter

	lastDir atomic.Int32
}

// InstrumentConn wraps c so its traffic lands on r's wire counters,
// with the given extra label pairs (e.g. "model", m, "shard", s)
// attached to every series. Safe on a nil registry: the counters
// still count, they are just not exported anywhere.
func InstrumentConn(c transport.Conn, r *Registry, labels ...string) *WireConn {
	w := &WireConn{inner: c}
	mk := func(name, kind string) *Counter {
		ls := append(append(make([]string, 0, len(labels)+2), labels...), "kind", kind)
		return r.Counter(name, ls...)
	}
	for i, kind := range wireKindNames {
		w.sentBytes[i] = mk("pasnet_wire_sent_bytes_total", kind)
		w.sentFrames[i] = mk("pasnet_wire_sent_frames_total", kind)
		w.recvBytes[i] = mk("pasnet_wire_recv_bytes_total", kind)
		w.recvFrames[i] = mk("pasnet_wire_recv_frames_total", kind)
	}
	w.rounds = r.Counter("pasnet_wire_rounds_total", labels...)
	return w
}

// Inner returns the wrapped connection.
func (w *WireConn) Inner() transport.Conn { return w.inner }

// Rounds returns the protocol round count so far.
func (w *WireConn) Rounds() int64 { return w.rounds.Load() }

func (w *WireConn) noteSend(kind byte, payloadBytes int) {
	i := kindIndex(kind)
	w.sentBytes[i].Add(int64(payloadBytes))
	w.sentFrames[i].Inc()
	w.lastDir.Store(dirSend)
}

func (w *WireConn) noteRecv(kind byte, payloadBytes int) {
	i := kindIndex(kind)
	w.recvBytes[i].Add(int64(payloadBytes))
	w.recvFrames[i].Inc()
	if w.lastDir.Swap(dirRecv) == dirSend {
		w.rounds.Inc()
	}
}

// SendUints implements transport.Conn.
func (w *WireConn) SendUints(xs []uint32) error {
	err := w.inner.SendUints(xs)
	if err == nil {
		w.noteSend('u', 4*len(xs))
	}
	return err
}

// RecvUints implements transport.Conn.
func (w *WireConn) RecvUints() ([]uint32, error) {
	xs, err := w.inner.RecvUints()
	if err == nil {
		w.noteRecv('u', 4*len(xs))
	}
	return xs, err
}

// SendUint64s implements transport.Conn.
func (w *WireConn) SendUint64s(xs []uint64) error {
	err := w.inner.SendUint64s(xs)
	if err == nil {
		w.noteSend('U', 8*len(xs))
	}
	return err
}

// RecvUint64s implements transport.Conn.
func (w *WireConn) RecvUint64s() ([]uint64, error) {
	xs, err := w.inner.RecvUint64s()
	if err == nil {
		w.noteRecv('U', 8*len(xs))
	}
	return xs, err
}

// RecvUint64sMax implements transport.Conn.
func (w *WireConn) RecvUint64sMax(maxElems int) ([]uint64, error) {
	xs, err := w.inner.RecvUint64sMax(maxElems)
	if err == nil {
		w.noteRecv('U', 8*len(xs))
	}
	return xs, err
}

// SendBytes implements transport.Conn.
func (w *WireConn) SendBytes(b []byte) error {
	err := w.inner.SendBytes(b)
	if err == nil {
		w.noteSend('b', len(b))
	}
	return err
}

// RecvBytes implements transport.Conn.
func (w *WireConn) RecvBytes() ([]byte, error) {
	b, err := w.inner.RecvBytes()
	if err == nil {
		w.noteRecv('b', len(b))
	}
	return b, err
}

// SendShape implements transport.Conn.
func (w *WireConn) SendShape(shape []int) error {
	err := w.inner.SendShape(shape)
	if err == nil {
		w.noteSend('s', 4*len(shape))
	}
	return err
}

// RecvShape implements transport.Conn.
func (w *WireConn) RecvShape() ([]int, error) {
	shape, err := w.inner.RecvShape()
	if err == nil {
		w.noteRecv('s', 4*len(shape))
	}
	return shape, err
}

// SendModelShape implements transport.Conn.
func (w *WireConn) SendModelShape(model string, shape []int) error {
	err := w.inner.SendModelShape(model, shape)
	if err == nil {
		w.noteSend('m', 1+len(model)+4*len(shape))
	}
	return err
}

// RecvModelShape implements transport.Conn.
func (w *WireConn) RecvModelShape() (string, []int, error) {
	model, shape, err := w.inner.RecvModelShape()
	if err == nil {
		w.noteRecv('m', 1+len(model)+4*len(shape))
	}
	return model, shape, err
}

// SendError implements transport.Conn.
func (w *WireConn) SendError(msg string) error {
	err := w.inner.SendError(msg)
	if err == nil {
		// Mirror the transport's truncation so both directions agree.
		n := len(msg)
		if n == 0 {
			n = len("unspecified error")
		} else if n > 1024 {
			n = 1024
		}
		w.noteSend('e', n)
	}
	return err
}

// RecvReply implements transport.Conn.
func (w *WireConn) RecvReply(maxElems int) ([]uint64, string, error) {
	vals, errMsg, err := w.inner.RecvReply(maxElems)
	if err == nil {
		if errMsg != "" {
			w.noteRecv('e', len(errMsg))
		} else {
			w.noteRecv('U', 8*len(vals))
		}
	}
	return vals, errMsg, err
}

// SetReadDeadline implements transport.Conn.
func (w *WireConn) SetReadDeadline(t time.Time) error { return w.inner.SetReadDeadline(t) }

// SetWriteDeadline implements transport.Conn.
func (w *WireConn) SetWriteDeadline(t time.Time) error { return w.inner.SetWriteDeadline(t) }

// Stats implements transport.Conn by delegating to the wrapped
// connection, whose counters include both directions.
func (w *WireConn) Stats() transport.Stats { return w.inner.Stats() }

// Close implements transport.Conn.
func (w *WireConn) Close() error { return w.inner.Close() }
