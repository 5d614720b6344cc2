// Command servebench is the repository's serving benchmark. It drives the
// real deployment stack from outside — a gateway.Registry with fixed
// weight masks, gateway.WriteShardStores, gateway.NewRouter, and a dial
// hook that serves party 0 in-process through gateway.ServeShardConn —
// on the demo backbone the pasnet-bench exhibits train, checks every
// reply against the plaintext model, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	go run ./servebench --workload relu-k1 --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced deployments and reports per-layer
// metrics from the traced ones (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed: picks the input rows and the arrival schedule")
	seconds := flag.Int("seconds", 40, "serving time of one run, split evenly between its deployments")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run prepares the workload, serves its cycles and assembles the result.
func run(w workload, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	p, err := prepare(w.class)
	if err != nil {
		return nil, err
	}
	fmt.Printf("servebench %s seed=%d: %d of %d dataset rows eligible (%d excluded: plaintext |logit| > %g)\n",
		w.name, seed, len(p.eligible), p.data.Len(), p.data.Len()-len(p.eligible), saneLogit)
	root := filepath.Join(buildDir, fmt.Sprintf("stores-%d", os.Getpid()))
	defer os.RemoveAll(root)
	share := seconds / time.Duration(w.cycles)
	var cycles []*cycleResult
	for c := 0; c < w.cycles; c++ {
		// A traced run alternates untraced and traced deployments, so the
		// tracing overhead is measured inside the run.
		res, err := runCycle(w, p, seed, c, share, root, traced && c%2 == 1)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  cycle %d traced=%v: setup %.3fs, %d requests, %.3fs timed\n",
			c, res.traced, res.setup.Seconds(), len(res.reqs), res.wall.Seconds())
		cycles = append(cycles, res)
		// Free this cycle's stores before the next set-up is timed.
		runtime.GC()
	}
	out := &result{Correct: true, Metrics: map[string]metric{}}
	for _, c := range cycles {
		out.Attempted += len(c.reqs) + 1
		if c.warmErr != nil {
			out.Failed++
			fmt.Fprintln(os.Stderr, "servebench: warm-up request failed:", c.warmErr)
		}
		for _, q := range c.reqs {
			if q.err != nil {
				out.Failed++
				fmt.Fprintln(os.Stderr, "servebench: request failed:", q.err)
			}
		}
		if c.fallbacks > 0 {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "servebench: %d flushes fell back to the live dealer instead of the stores\n", c.fallbacks)
		}
		if c.closeErr != nil {
			out.Correct = false
			fmt.Fprintln(os.Stderr, "servebench: deployment teardown:", c.closeErr)
		}
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	e2e := endToEnd(cycles)
	if !e2e.lat.tailOK {
		out.Correct = false
		fmt.Fprintf(os.Stderr, "servebench: only %d timed requests leave fewer than %d beyond p90\n", e2e.lat.n, minTail)
	}
	fmt.Printf("  %d timed requests, %d failed; p50 %.3f ms, p90 %.3f ms", e2e.lat.n, e2e.lat.failed, e2e.lat.p50, e2e.lat.p90)
	if e2e.lat.tailOK {
		fmt.Printf("; highest supported percentile p%g = %.3f ms", e2e.lat.tailP, e2e.lat.tail)
	}
	fmt.Println()
	if traced {
		out.Metrics, err = perLayer(w, p, cycles, seed)
		if err != nil {
			return nil, err
		}
	} else {
		out.Metrics = e2e.metrics
	}
	return out, nil
}
