package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"pasnet/internal/dataset"
	"pasnet/internal/gateway"
	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/nas"
	"pasnet/internal/obs"
	"pasnet/internal/tensor"
	"pasnet/internal/transport"
)

// The demo backbone every pasnet-bench 2PC exhibit trains: resnet18 at
// width 0.0625 on 8×8 inputs, 4 classes, the synthetic dataset.
const (
	backbone = "resnet18"
	demoHW   = 8
	classes  = 4
)

// saneLogit excludes dataset rows whose plaintext logits the fixed-point
// ring cannot represent: the tiny demo backbone's X² activations blow a
// few synthetic rows up to logits around 1e24. It is the exhibits' rule.
const saneLogit = 10.0

// tolerance is the largest logit error a correct reply may carry against
// the plaintext model.
const tolerance = 0.05

// dealerSeed is the deployments' base dealer seed. It is not an input: it
// only keys the correlation randomness of each cycle's shard pair.
const dealerSeed = 17

// prepared is everything a workload needs before any deployment: the
// trained model, its op list at executed scale, and the plaintext
// reference logits of every dataset row. None of it is timed.
type prepared struct {
	model    *models.Model
	ops      []hwmodel.NetOp
	data     *dataset.Dataset
	refs     [][]float64 // per dataset row
	eligible []int
}

// classConfig is the demo backbone's configuration for one program class:
// all-ReLU/max-pool, all-X²/avg-pool, or X²/avg on even slots and
// ReLU/max on odd slots.
func classConfig(class string) (models.Config, error) {
	cfg := models.CIFARConfig(0.0625, 3)
	cfg.InputHW = demoHW
	cfg.NumClasses = classes
	switch class {
	case "relu-max":
		cfg.Act = models.ActReLU
		cfg.Pool = models.PoolMax
	case "x2-avg":
		cfg.Act = models.ActX2
		cfg.Pool = models.PoolAvg
	case "mixed":
		cfg.ActAt = func(slot int) models.ActChoice {
			if slot%2 == 0 {
				return models.ActX2
			}
			return models.ActReLU
		}
		cfg.PoolAt = func(slot int) models.PoolChoice {
			if slot%2 == 0 {
				return models.PoolAvg
			}
			return models.PoolMax
		}
	default:
		return cfg, fmt.Errorf("unknown program class %q", class)
	}
	return cfg, nil
}

// prepare trains the class's demo backbone deterministically and computes
// the plaintext reference of every dataset row.
func prepare(class string) (*prepared, error) {
	cfg, err := classConfig(class)
	if err != nil {
		return nil, err
	}
	m, err := models.ByName(backbone, cfg)
	if err != nil {
		return nil, err
	}
	d := dataset.Synthetic(dataset.SynthConfig{
		N: 64, Classes: classes, C: 3, HW: demoHW, LatentDim: 8,
		TeacherHidden: 16, TeacherDepth: 2, Noise: 0.1, Seed: 9,
	})
	opts := nas.DefaultTrainOptions()
	opts.Steps = 20
	opts.BatchSize = 8
	if _, err := nas.TrainModel(m, d, d, opts); err != nil {
		return nil, fmt.Errorf("train %s: %w", class, err)
	}
	// The op list at the executed scale keys the per-op timing feed.
	cfg.OpsOnly = true
	cfg.TrainScaleOps = true
	opsModel, err := models.ByName(backbone, cfg)
	if err != nil {
		return nil, err
	}
	p := &prepared{model: m, ops: opsModel.Ops, data: d, refs: make([][]float64, d.Len())}
	for i := range p.refs {
		x, _ := d.Batch([]int{i})
		p.refs[i] = append([]float64(nil), m.Net.Forward(x, false).Data...)
		sane := true
		for _, v := range p.refs[i] {
			if math.Abs(v) > saneLogit {
				sane = false
			}
		}
		if sane {
			p.eligible = append(p.eligible, i)
		}
	}
	if len(p.eligible) == 0 {
		return nil, fmt.Errorf("%s: the plaintext model diverges on every dataset row", class)
	}
	return p, nil
}

// input builds one request's tensor.
func (p *prepared) input(rows []int) *tensor.Tensor {
	x, _ := p.data.Batch(rows)
	return x
}

// check compares a reply with the plaintext model.
func (p *prepared) check(rows []int, got []float64) error {
	if len(got) != len(rows)*classes {
		return fmt.Errorf("reply has %d logits, want %d", len(got), len(rows)*classes)
	}
	for i, r := range rows {
		for j, want := range p.refs[r] {
			if d := math.Abs(got[i*classes+j] - want); d > tolerance {
				return fmt.Errorf("row %d logit %d off by %.4g from the plaintext model", r, j, d)
			}
		}
	}
	return nil
}

// deployment is one cycle's serving stack: the registry with fixed masks,
// its shard stores, the router, and the in-process party-0 vendor behind
// the benchmark's dial hook.
type deployment struct {
	rt   *gateway.Router
	link *linkConn
	reg  *obs.Registry // nil untraced
	dir  string

	setup, build time.Duration
	storeBytes   int64
	capImages    int

	// vendor serves the one shard link's party 0; vendorErr is read only
	// after vendor.Wait.
	vendor    sync.WaitGroup
	vendorErr error
}

// deploy sets up one cycle's deployment for n requests. setup times the
// registry, store provisioning and the router (dial, hello, weight
// sharing, the fixed-mask opening, store preload) up to the first
// submittable request; build times gateway.WriteShardStores alone.
func deploy(w workload, p *prepared, n int, dir string, traced bool) (*deployment, error) {
	d := &deployment{dir: dir}
	t0 := time.Now()
	reg := gateway.NewRegistry()
	reg.SetFixedMasks(true)
	spec := &gateway.ModelSpec{
		ID:     backbone,
		Model:  p.model,
		Input:  []int{3, demoHW, demoHW},
		RowCap: w.rows,
		Shards: gateway.Shards(backbone, 1, dealerSeed, dir),
	}
	if err := reg.Register(spec); err != nil {
		return nil, err
	}
	geoms := w.geometries(n)
	ks := make([]int, 0, len(geoms))
	for k := range geoms {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	tb := time.Now()
	for _, k := range ks {
		paths, err := gateway.WriteShardStores(reg, []int{k}, geoms[k])
		if err != nil {
			return nil, err
		}
		for _, path := range paths {
			st, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			d.storeBytes += st.Size()
		}
		d.capImages += k * geoms[k]
	}
	d.build = time.Since(tb)
	opts := gateway.RouterOptions{
		Batch:    w.batch,
		Policy:   w.policy,
		Pipeline: w.pipeline,
		Dial: func(gateway.ShardDesc) (transport.Conn, error) {
			var c0, c1 transport.Conn
			if w.oneWay > 0 {
				c0, c1 = transport.DelayPipe(w.oneWay)
			} else {
				a, b := transport.Pipe()
				c0, c1 = a, b
			}
			d.vendor.Add(1)
			go func() {
				defer d.vendor.Done()
				d.vendorErr = gateway.ServeShardConn(c0, reg)
			}()
			d.link = &linkConn{inner: c1, traced: traced}
			return d.link, nil
		},
	}
	if traced {
		d.reg = obs.New()
		opts.Obs = d.reg
		opts.OpSampleEvery = 1
	}
	rt, err := gateway.NewRouter(reg, opts)
	if err != nil {
		d.vendor.Wait()
		return nil, err
	}
	d.rt = rt
	d.setup = time.Since(t0)
	return d, nil
}

// status returns the single shard lane's status.
func (d *deployment) status() gateway.ShardStatus {
	return d.rt.Status()[0]
}

// close drains the router, waits for the vendor and removes the stores.
func (d *deployment) close() error {
	err := d.rt.Close()
	d.vendor.Wait()
	return errors.Join(err, d.vendorErr, os.RemoveAll(d.dir))
}
