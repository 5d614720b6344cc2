package main

import (
	"fmt"
	"sync"
	"time"

	"pasnet/internal/hwmodel"
	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/ot"
	"pasnet/internal/rng"
	"pasnet/internal/transport"
)

// minProbe is the least time a layer probe measures before taking the
// median of its repetitions.
const minProbe = 300 * time.Millisecond

// otInstancesPerImage counts the (1,4)-OT instances one image's DReLUs
// run: NumChunks digits per comparison, one comparison per ReLU element
// and K²−1 per max-pool output (the tournament).
func otInstancesPerImage(ops []hwmodel.NetOp) int {
	cmp := 0
	for _, op := range ops {
		s := op.Shape
		switch op.Kind {
		case hwmodel.OpReLU:
			cmp += s.Elems()
		case hwmodel.OpMaxPool:
			fo := (s.FI-s.K)/s.Stride + 1
			cmp += fo * fo * s.IC * (s.K*s.K - 1)
		}
	}
	return cmp * mpc.NumChunks
}

// timeOT runs batches of n (1,4)-OTs between ot.Sender and ot.Receiver
// over an in-memory pipe and returns the median µs per instance and the
// bytes per instance in both directions; zeros when n is 0.
func timeOT(n int) (usPer, bytesPer float64, err error) {
	if n == 0 {
		return 0, 0, nil
	}
	r := rng.New(0x6f74)
	tables := make([][ot.NumChoices]byte, n)
	choices := make([]byte, n)
	for j := range tables {
		for i := range tables[j] {
			tables[j][i] = byte(r.Uint64())
		}
		choices[j] = byte(r.Intn(ot.NumChoices))
	}
	c0, c1 := transport.Pipe()
	defer c0.Close()
	defer c1.Close()
	sr, rr := rng.New(1), rng.New(2)
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < minProbe; {
		t0 := time.Now()
		var wg sync.WaitGroup
		var sendErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			sendErr = ot.Sender(c0, sr, tables)
		}()
		got, recvErr := ot.Receiver(c1, rr, choices)
		wg.Wait()
		if sendErr != nil || recvErr != nil {
			return 0, 0, fmt.Errorf("ot probe: sender %v, receiver %v", sendErr, recvErr)
		}
		for j, c := range choices {
			if got[j] != tables[j][c] {
				return 0, 0, fmt.Errorf("ot probe: instance %d delivered the wrong message", j)
			}
		}
		times = append(times, float64(time.Since(t0).Microseconds()))
	}
	bytes := c0.Stats().BytesSent + c1.Stats().BytesSent
	return median(times) / float64(n), float64(bytes) / float64(len(times)*n), nil
}

// convShapes lowers the op list's convolutions to kernel shapes at the
// given batch rows. The padding is the one that reproduces each op's
// recorded output size.
func convShapes(ops []hwmodel.NetOp, rows int) []kernel.ConvShape {
	var out []kernel.ConvShape
	for _, op := range ops {
		if op.Kind != hwmodel.OpConv {
			continue
		}
		s := op.Shape
		ks := kernel.ConvShape{N: rows, InC: s.IC, H: s.FI, W: s.FI, OutC: s.OC, KH: s.K, KW: s.K, Stride: s.Stride, Groups: s.Groups}
		for ks.Pad = 0; ks.Pad <= s.K; ks.Pad++ {
			if oh, _ := ks.OutHW(); oh == s.FO {
				break
			}
		}
		out = append(out, ks)
	}
	return out
}

// timeConvs times kernel.Conv2D over the ring on every conv shape of the
// program at the given batch rows, as one pass per repetition, and
// returns the MACs per image, the median ms per image and the GMAC/s.
func timeConvs(ops []hwmodel.NetOp, rows int) (macsPerImage int64, msPerImage, gmacs float64) {
	shapes := convShapes(ops, rows)
	if len(shapes) == 0 {
		return 0, 0, 0
	}
	type buf struct{ out, x, k []uint64 }
	bufs := make([]buf, len(shapes))
	r := rng.New(0x636f6e76)
	for i, s := range shapes {
		oh, ow := s.OutHW()
		macsPerImage += int64(s.OutC * oh * ow * (s.InC / s.NormGroups()) * s.KH * s.KW)
		b := buf{out: make([]uint64, s.OutLen()), x: make([]uint64, s.InLen()), k: make([]uint64, s.KLen())}
		r.FillUint64(b.x)
		r.FillUint64(b.k)
		bufs[i] = b
	}
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < minProbe; {
		t0 := time.Now()
		for i, s := range shapes {
			kernel.Conv2D(bufs[i].out, bufs[i].x, bufs[i].k, s)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	pass := median(times)
	return macsPerImage, pass * 1e3 / float64(rows), float64(macsPerImage) * float64(rows) / pass / 1e9
}
