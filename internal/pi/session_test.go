package pi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pasnet/internal/fixed"
	"pasnet/internal/models"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// tinyModel wraps a hand-built network in a models.Model so Session tests
// need no training.
func tinyModel(seed uint64) (*models.Model, int, int) {
	v := netVariants[0] // plain-x2-gap
	r := rng.New(seed)
	net := v.build(r, v.hw, v.inC, 3)
	warmNet(net, r, v.hw, v.inC)
	return &models.Model{Name: "tiny", Net: net}, v.inC, v.hw
}

// runBothParties drives one Session pair over an in-memory pipe — party 1
// queries x once, party 0 serves one flush against its declared geometry
// expect — with a timeout guard: a shape mismatch must produce errors,
// never a hang.
func runBothParties(t *testing.T, m *models.Model, x *tensor.Tensor, expect []int) ([2][]float64, [2]error) {
	t.Helper()
	c0, c1 := transport.Pipe()
	codec := fixed.Default64()
	p0 := mpc.NewParty(0, c0, 5, 51, codec)
	p1 := mpc.NewParty(1, c1, 5, 52, codec)
	var outs [2][]float64
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sess, err := NewSession(p0, m, expect)
		if err != nil {
			errs[0] = err
			return
		}
		out, done, err := sess.ServeOne()
		if err == nil && done {
			err = fmt.Errorf("peer closed the session before querying")
		}
		outs[0], errs[0] = out, err
	}()
	go func() {
		defer wg.Done()
		sess, err := NewSession(p1, m, nil)
		if err != nil {
			errs[1] = err
			return
		}
		outs[1], errs[1] = sess.Query(x)
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("session pair deadlocked")
	}
	c0.Close()
	c1.Close()
	return outs, errs
}

func TestSessionShapeMismatchIsDetected(t *testing.T) {
	m, inC, hw := tinyModel(21)
	// Party 1's query disagrees with party 0's declared geometry.
	x := tensor.New(1, inC, hw/2, hw/2).RandNorm(rng.New(3), 0.5)
	_, errs := runBothParties(t, m, x, []int{0, inC, hw, hw})
	for party, err := range errs {
		if err == nil {
			t.Fatalf("party %d accepted mismatched query shape", party)
		}
		if !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("party %d error is not the shape diagnostic: %v", party, err)
		}
	}
}

func TestSessionShapeAgreementSucceeds(t *testing.T) {
	m, inC, hw := tinyModel(22)
	plainQ := tensor.New(1, inC, hw, hw).RandNorm(rng.New(4), 0.5)
	want := m.Net.Forward(plainQ, false).Data

	cases := []struct {
		name   string
		expect []int
	}{
		{"exact", []int{1, inC, hw, hw}},
		{"wildcard-batch", []int{0, inC, hw, hw}},
		{"nil-accepts-all", nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			outs, errs := runBothParties(t, m, plainQ, c.expect)
			if errs[0] != nil || errs[1] != nil {
				t.Fatalf("agreeing shapes rejected: %v %v", errs[0], errs[1])
			}
			for party, out := range outs {
				if d := maxAbsDiff(out, want); d > 0.05 {
					t.Fatalf("party %d logits off plaintext by %v", party, d)
				}
			}
		})
	}
}

// TestSessionBatchedFlushes runs a persistent session end to end: several
// differently-sized flushes over one weight-sharing setup, closed by the
// empty-shape sentinel.
func TestSessionBatchedFlushes(t *testing.T) {
	m, inC, hw := tinyModel(23)
	r := rng.New(9)
	flushes := [][]*tensor.Tensor{
		randQueries(r, 2, inC, hw),
		randQueries(r, 1, inC, hw),
		randQueries(r, 4, inC, hw),
	}

	c0, c1 := transport.Pipe()
	defer c0.Close()
	defer c1.Close()
	codec := fixed.Default64()
	p0 := mpc.NewParty(0, c0, 6, 61, codec)
	p1 := mpc.NewParty(1, c1, 6, 62, codec)

	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := NewSession(p0, m, []int{0, inC, hw, hw})
		if err != nil {
			serveErr = err
			return
		}
		serveErr = sess.Serve()
	}()

	sess, err := NewSession(p1, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for fi, queries := range flushes {
		packed, counts, err := PackQueries(queries)
		if err != nil {
			t.Fatal(err)
		}
		logits, err := sess.Query(packed)
		if err != nil {
			t.Fatalf("flush %d: %v", fi, err)
		}
		per, err := SplitLogits(logits, counts)
		if err != nil {
			t.Fatalf("flush %d: %v", fi, err)
		}
		for qi, q := range queries {
			plain := m.Net.Forward(q, false).Data
			if d := maxAbsDiff(per[qi], plain); d > 0.05 {
				t.Fatalf("flush %d query %d: diff %v from plaintext", fi, qi, d)
			}
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serve loop: %v", serveErr)
	}
}

// hangupConn is party 0's end of a link whose peer hangs up right after
// sending the end-of-session sentinel, as a client-facing server closing
// its TCP socket does. Once armed, the shape receive that delivers the
// sentinel marks the link dead, and a shape send — which first waits for
// that receive, so the outcome does not depend on goroutine scheduling —
// fails like a write to the closed socket.
type hangupConn struct {
	transport.Conn
	armed     bool
	delivered chan struct{}
}

func (c *hangupConn) RecvShape() ([]int, error) {
	shape, err := c.Conn.RecvShape()
	if c.armed && err == nil && len(shape) == 0 {
		close(c.delivered)
	}
	return shape, err
}

func (c *hangupConn) SendShape(shape []int) error {
	if c.armed {
		<-c.delivered
		return fmt.Errorf("write: broken pipe")
	}
	return c.Conn.SendShape(shape)
}

// TestServeEndsCleanlyWhenPeerHangsUp pins party 0's end of session: the
// sentinel ends the serve loop without a reply, so a peer that closed its
// link right after sending it cannot turn a clean shutdown into an error.
func TestServeEndsCleanlyWhenPeerHangsUp(t *testing.T) {
	m, inC, hw := tinyModel(24)
	c0, c1 := transport.Pipe()
	defer c0.Close()
	defer c1.Close()
	hc := &hangupConn{Conn: c0, delivered: make(chan struct{})}
	codec := fixed.Default64()
	p0 := mpc.NewParty(0, hc, 7, 71, codec)
	p1 := mpc.NewParty(1, c1, 7, 72, codec)

	type served struct {
		done bool
		err  error
	}
	step := make(chan struct{})
	results := make(chan served, 2)
	go func() {
		sess, err := NewSession(p0, m, []int{0, inC, hw, hw})
		if err != nil {
			results <- served{err: err}
			return
		}
		for range step {
			_, done, err := sess.ServeOne()
			results <- served{done, err}
		}
	}()
	sess, err := NewSession(p1, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One real flush through the unarmed link.
	x := tensor.New(1, inC, hw, hw).RandNorm(rng.New(10), 0.5)
	step <- struct{}{}
	logits, err := sess.Query(x)
	if err != nil {
		t.Fatal(err)
	}
	if r := <-results; r.err != nil || r.done {
		t.Fatalf("flush on party 0: done=%v err=%v", r.done, r.err)
	}
	if d := maxAbsDiff(logits, m.Net.Forward(x, false).Data); d > 0.05 {
		t.Fatalf("flush diff %v from plaintext", d)
	}
	// Party 0 is between flushes; the peer now sends the sentinel and
	// hangs up.
	hc.armed = true
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	step <- struct{}{}
	close(step)
	select {
	case r := <-results:
		if r.err != nil || !r.done {
			t.Fatalf("sentinel must end party 0's session cleanly, got done=%v err=%v", r.done, r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("party 0 hung on the sentinel")
	}
}
