package main

import (
	"sync"
	"sync/atomic"
	"time"

	"pasnet/internal/transport"
)

// Frame classes the link wrapper accounts separately.
const (
	classWord = iota // 'U'/'u' ring-word frames: shares, openings, OT group elements
	classRaw         // 'b' byte frames: OT tables, bit shares, hello acks
	classCtrl        // 's'/'m'/'e' control frames: shapes, source stamps, errors
	numClasses
)

// linkConn wraps the gateway end of one shard link. It always counts
// payload bytes and frames per class in both directions (atomic adds, so
// the untraced run pays next to nothing). Traced, it also times every
// receive, counts send→receive direction flips, and records the start of
// each flush: the party-1 session opens every flush with its 4-D query
// shape frame.
type linkConn struct {
	inner  transport.Conn
	traced bool

	sentBytes, recvBytes   [numClasses]atomic.Int64
	sentFrames, recvFrames atomic.Int64
	recvWaitNS             atomic.Int64
	rounds                 atomic.Int64
	lastSend               atomic.Bool

	mu      sync.Mutex
	flushes []flushStart
}

// flushStart is one flush's first frame on the link.
type flushStart struct {
	at   time.Time
	rows int
}

// linkCounts is a snapshot of a link's counters.
type linkCounts struct {
	sent, recv      [numClasses]int64
	frames          int64
	recvWait        time.Duration
	rounds          int64
	sentTot, rcvTot int64
}

func (c *linkConn) counts() linkCounts {
	var s linkCounts
	for i := 0; i < numClasses; i++ {
		s.sent[i] = c.sentBytes[i].Load()
		s.recv[i] = c.recvBytes[i].Load()
		s.sentTot += s.sent[i]
		s.rcvTot += s.recv[i]
	}
	s.frames = c.sentFrames.Load() + c.recvFrames.Load()
	s.recvWait = time.Duration(c.recvWaitNS.Load())
	s.rounds = c.rounds.Load()
	return s
}

// sub returns the counter deltas since base.
func (s linkCounts) sub(base linkCounts) linkCounts {
	d := linkCounts{
		frames:   s.frames - base.frames,
		recvWait: s.recvWait - base.recvWait,
		rounds:   s.rounds - base.rounds,
		sentTot:  s.sentTot - base.sentTot,
		rcvTot:   s.rcvTot - base.rcvTot,
	}
	for i := 0; i < numClasses; i++ {
		d.sent[i] = s.sent[i] - base.sent[i]
		d.recv[i] = s.recv[i] - base.recv[i]
	}
	return d
}

// add returns the sum of two sets of counts.
func (s linkCounts) add(o linkCounts) linkCounts {
	s.frames += o.frames
	s.recvWait += o.recvWait
	s.rounds += o.rounds
	s.sentTot += o.sentTot
	s.rcvTot += o.rcvTot
	for i := 0; i < numClasses; i++ {
		s.sent[i] += o.sent[i]
		s.recv[i] += o.recv[i]
	}
	return s
}

// takeFlushes returns the flush starts recorded since the last call.
func (c *linkConn) takeFlushes() []flushStart {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.flushes
	c.flushes = nil
	return f
}

func (c *linkConn) noteSend(class, n int) {
	c.sentBytes[class].Add(int64(n))
	c.sentFrames.Add(1)
	if c.traced {
		c.lastSend.Store(true)
	}
}

// recv times one receive and accounts its payload.
func (c *linkConn) recv(class int, f func() (int, error)) error {
	if !c.traced {
		n, err := f()
		if err == nil {
			c.recvBytes[class].Add(int64(n))
			c.recvFrames.Add(1)
		}
		return err
	}
	t0 := time.Now()
	n, err := f()
	c.recvWaitNS.Add(int64(time.Since(t0)))
	if err == nil {
		c.recvBytes[class].Add(int64(n))
		c.recvFrames.Add(1)
		if c.lastSend.Swap(false) {
			c.rounds.Add(1)
		}
	}
	return err
}

func (c *linkConn) SendUints(xs []uint32) error {
	err := c.inner.SendUints(xs)
	if err == nil {
		c.noteSend(classWord, 4*len(xs))
	}
	return err
}

func (c *linkConn) RecvUints() (xs []uint32, err error) {
	err = c.recv(classWord, func() (int, error) {
		xs, err = c.inner.RecvUints()
		return 4 * len(xs), err
	})
	return xs, err
}

func (c *linkConn) SendUint64s(xs []uint64) error {
	err := c.inner.SendUint64s(xs)
	if err == nil {
		c.noteSend(classWord, 8*len(xs))
	}
	return err
}

func (c *linkConn) RecvUint64s() (xs []uint64, err error) {
	err = c.recv(classWord, func() (int, error) {
		xs, err = c.inner.RecvUint64s()
		return 8 * len(xs), err
	})
	return xs, err
}

func (c *linkConn) RecvUint64sMax(maxElems int) (xs []uint64, err error) {
	err = c.recv(classWord, func() (int, error) {
		xs, err = c.inner.RecvUint64sMax(maxElems)
		return 8 * len(xs), err
	})
	return xs, err
}

func (c *linkConn) SendBytes(b []byte) error {
	err := c.inner.SendBytes(b)
	if err == nil {
		c.noteSend(classRaw, len(b))
	}
	return err
}

func (c *linkConn) RecvBytes() (b []byte, err error) {
	err = c.recv(classRaw, func() (int, error) {
		b, err = c.inner.RecvBytes()
		return len(b), err
	})
	return b, err
}

func (c *linkConn) SendShape(shape []int) error {
	var at time.Time
	if c.traced && len(shape) == 4 {
		at = time.Now()
	}
	err := c.inner.SendShape(shape)
	if err == nil {
		c.noteSend(classCtrl, 4*len(shape))
		if !at.IsZero() {
			c.mu.Lock()
			c.flushes = append(c.flushes, flushStart{at: at, rows: shape[0]})
			c.mu.Unlock()
		}
	}
	return err
}

func (c *linkConn) RecvShape() (shape []int, err error) {
	err = c.recv(classCtrl, func() (int, error) {
		shape, err = c.inner.RecvShape()
		return 4 * len(shape), err
	})
	return shape, err
}

func (c *linkConn) SendModelShape(model string, shape []int) error {
	err := c.inner.SendModelShape(model, shape)
	if err == nil {
		c.noteSend(classCtrl, 1+len(model)+4*len(shape))
	}
	return err
}

func (c *linkConn) RecvModelShape() (model string, shape []int, err error) {
	err = c.recv(classCtrl, func() (int, error) {
		model, shape, err = c.inner.RecvModelShape()
		return 1 + len(model) + 4*len(shape), err
	})
	return model, shape, err
}

func (c *linkConn) SendError(msg string) error {
	err := c.inner.SendError(msg)
	if err == nil {
		c.noteSend(classCtrl, len(msg))
	}
	return err
}

func (c *linkConn) RecvReply(maxElems int) (vals []uint64, errMsg string, err error) {
	err = c.recv(classWord, func() (int, error) {
		vals, errMsg, err = c.inner.RecvReply(maxElems)
		return 8*len(vals) + len(errMsg), err
	})
	return vals, errMsg, err
}

func (c *linkConn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c *linkConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
func (c *linkConn) Stats() transport.Stats             { return c.inner.Stats() }
func (c *linkConn) Close() error                       { return c.inner.Close() }
