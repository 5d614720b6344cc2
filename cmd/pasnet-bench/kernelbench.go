package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pasnet/internal/fixed"
	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// kernelResult is one timed entry of the kernel exhibit.
type kernelResult struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	N       int     `json:"iterations"`
}

// kernelReport is the BENCH_kernel.json schema: the perf-trajectory file
// CI archives so kernel regressions are visible across commits. Every
// workload is timed on the naive reference and on the tiled kernel, and
// SpeedupsLowered is the naive-over-tiled ratio.
type kernelReport struct {
	GeneratedUnix   int64              `json:"generated_unix"`
	Workers         int                `json:"workers"`
	Results         []kernelResult     `json:"results"`
	SpeedupsLowered map[string]float64 `json:"speedups_lowered_over_naive"`
}

// kernelBench times the naive and tiled kernels on the exhibit workloads — conv
// in both element domains and through the full 2PC-Conv protocol, plus the
// square ring/float GEMM shapes the register-tiled microkernel targets —
// and optionally writes BENCH_kernel.json into jsonDir.
func kernelBench(jsonDir string) error {
	if err := checkBenchDir(jsonDir); err != nil {
		return err
	}
	convShape := kernel.ConvShape{N: 4, InC: 16, H: 16, W: 16, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	dims := mpc.ConvDims{N: 1, InC: 8, H: 16, W: 16, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	r := rng.New(99)
	xf := make([]float64, convShape.InLen())
	kf := make([]float64, convShape.KLen())
	r.FillNorm(xf, 1)
	r.FillNorm(kf, 1)
	outF := make([]float64, convShape.OutLen())
	xu := make([]uint64, convShape.InLen())
	ku := make([]uint64, convShape.KLen())
	r.FillUint64(xu)
	r.FillUint64(ku)
	outU := make([]uint64, convShape.OutLen())

	// Square GEMM shapes: the 2PC weight-times-activation matmuls (and the
	// dealer's a@b triple products) are exactly these ring GEMMs, and they
	// are where register tiling pays most.
	const gemmSmall, gemmLarge = 128, 256
	au := make([]uint64, gemmLarge*gemmLarge)
	bu := make([]uint64, gemmLarge*gemmLarge)
	r.FillUint64(au)
	r.FillUint64(bu)
	cu := make([]uint64, gemmLarge*gemmLarge)
	af := make([]float64, gemmLarge*gemmLarge)
	bf := make([]float64, gemmLarge*gemmLarge)
	r.FillNorm(af, 1)
	r.FillNorm(bf, 1)
	cf := make([]float64, gemmLarge*gemmLarge)

	run2pcConv := func() error {
		xs := make([]float64, dims.InLen())
		ws := make([]float64, dims.KLen())
		r.FillNorm(xs, 1)
		r.FillNorm(ws, 0.5)
		return mpc.RunProtocol(5, fixed.Default64(), func(p *mpc.Party) error {
			var encX, encW []uint64
			if p.ID == 0 {
				encX = p.EncodeTensor(xs)
				encW = p.EncodeTensor(ws)
			}
			x, err := p.ShareInput(0, encX, dims.N, dims.InC, dims.H, dims.W)
			if err != nil {
				return err
			}
			w, err := p.ShareInput(0, encW, dims.KLen())
			if err != nil {
				return err
			}
			_, err = p.Conv2D(x, w, dims)
			return err
		})
	}

	var protoErr error
	workloads := []struct {
		base string
		fn   func()
	}{
		{"conv_f64", func() { kernel.Conv2D(outF, xf, kf, convShape) }},
		{"conv_ring", func() { kernel.Conv2D(outU, xu, ku, convShape) }},
		{"conv_2pc", func() {
			if err := run2pcConv(); err != nil && protoErr == nil {
				protoErr = err
			}
		}},
		{"gemm_ring_128", func() { kernel.MatMul(cu[:gemmSmall*gemmSmall], au, bu, gemmSmall, gemmSmall, gemmSmall) }},
		{"gemm_ring_256", func() { kernel.MatMul(cu, au, bu, gemmLarge, gemmLarge, gemmLarge) }},
		{"gemm_f64_256", func() { kernel.MatMul(cf, af, bf, gemmLarge, gemmLarge, gemmLarge) }},
	}

	rep := kernelReport{
		GeneratedUnix:   time.Now().Unix(),
		Workers:         kernel.Workers(),
		SpeedupsLowered: map[string]float64{},
	}
	perOp := map[string]float64{}
	fmt.Printf("Kernel microbenchmarks (workers=%d):\n", kernel.Workers())
	for _, w := range workloads {
		for _, path := range []string{"naive", "tiled"} {
			name := w.base + "_" + path
			prev := kernel.SetNaive(path == "naive")
			br := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.fn()
				}
			})
			kernel.SetNaive(prev)
			ns := float64(br.NsPerOp())
			perOp[name] = ns
			rep.Results = append(rep.Results, kernelResult{Name: name, NsPerOp: ns, N: br.N})
			fmt.Printf("  %-22s %12.0f ns/op  (%d iters)\n", name, ns, br.N)
			if protoErr != nil {
				return fmt.Errorf("2PC conv protocol failed during %s: %w", name, protoErr)
			}
		}
	}
	fmt.Println("\nPer-workload speedups (tiled over naive):")
	for _, w := range workloads {
		if tiled := perOp[w.base+"_tiled"]; tiled > 0 {
			rep.SpeedupsLowered[w.base] = perOp[w.base+"_naive"] / tiled
		}
		fmt.Printf("  %-14s %6.2fx\n", w.base, rep.SpeedupsLowered[w.base])
	}

	if jsonDir != "" {
		path := filepath.Join(jsonDir, "BENCH_kernel.json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", path)
	}
	return nil
}
