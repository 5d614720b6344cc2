package pi

import (
	"fmt"
	"time"

	"pasnet/internal/hwmodel"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
)

// Engine executes a compiled program on one party's endpoint. Weight
// shares are established once by Setup and reused across inferences, as
// in a deployed two-server system.
type Engine struct {
	// Prog is the compiled program.
	Prog *Program
	// party is bound at Setup.
	party *mpc.Party
	// weights holds this party's shares of the secret tensors, indexed
	// in program order (depth-first through residual branches).
	weights []mpc.Share
	// fixedMasks selects the fixed weight-mask protocol: Setup opens
	// F = W−b once per weight right after sharing it, and every linear op
	// opens only the activation side per flush (mpc fixedmask.go). Both
	// parties must agree — a one-sided toggle desyncs Setup's opening
	// exchange and fails loudly there.
	fixedMasks bool
	// fixedWs holds the per-weight opened F = W−b, parallel to weights,
	// when fixedMasks is on.
	fixedWs []*mpc.FixedWeight
	// feed, when set, receives the per-op timings of every feedEvery-th
	// flush as running per-key aggregates, so a serving session pays the
	// tracing clock reads only on sampled flushes and allocates nothing
	// either way.
	feed      *obs.OpFeed
	feedEvery int
	feedFlush int64
	feedNow   bool
}

// NewEngine wraps a program.
func NewEngine(prog *Program) *Engine { return &Engine{Prog: prog} }

// SetFixedMasks toggles the fixed weight-mask protocol. Call before Setup;
// both parties must pick the same mode.
func (e *Engine) SetFixedMasks(on bool) { e.fixedMasks = on }

// FixedMasks reports the engine's weight-mask mode.
func (e *Engine) FixedMasks() bool { return e.fixedMasks }

// SetOpFeed installs a sampled per-op timing feed: every every-th Infer
// call traces its operators into feed's running aggregates. Sampling is
// local to this engine — the peer needs no matching toggle and the
// protocol stream is unchanged. every < 1 defaults to 1
// (sample every flush); a nil feed disables sampling.
func (e *Engine) SetOpFeed(feed *obs.OpFeed, every int) {
	if every < 1 {
		every = 1
	}
	e.feed = feed
	e.feedEvery = every
	e.feedFlush = 0
}

// Setup secret-shares the model parameters from party 0 (the model
// vendor). Both parties must call it before Infer. With fixed masks on it
// also opens every weight's F = W−b — the once-per-session cost the
// per-flush openings then stop paying.
func (e *Engine) Setup(p *mpc.Party) error {
	e.party = p
	e.weights = e.weights[:0]
	e.fixedWs = e.fixedWs[:0]
	return e.setupProg(p, e.Prog)
}

func (e *Engine) setupProg(p *mpc.Party, prog *Program) error {
	for i := range prog.Ops {
		op := &prog.Ops[i]
		switch op.kind {
		case opConv, opDWConv, opLinear:
			var enc []uint64
			if p.ID == 0 {
				enc = p.EncodeTensor(op.weights)
			}
			sh, err := p.ShareInput(0, enc, op.weightShape...)
			if err != nil {
				return fmt.Errorf("pi: setup %s: %w", op.name, err)
			}
			if op.kind == opLinear {
				// Infer computes y = x Wᵀ; store the transposed share once
				// (a local, deterministic re-layout both parties apply
				// identically) instead of re-materializing it per query.
				out, in := op.weightShape[0], op.weightShape[1]
				wt := mpc.NewShare(in, out)
				for r := 0; r < out; r++ {
					for c := 0; c < in; c++ {
						wt.V[c*out+r] = sh.V[r*in+c]
					}
				}
				sh = wt
			}
			e.weights = append(e.weights, sh)
			if e.fixedMasks {
				// The mask slot is the weight's program-order index, so the
				// same layer maps to the same slot on both parties and in
				// every store built for this program.
				fw, err := p.OpenFixedW(len(e.weights)-1, sh)
				if err != nil {
					return fmt.Errorf("pi: setup %s fixed mask: %w", op.name, err)
				}
				e.fixedWs = append(e.fixedWs, fw)
			}
		case opResidual:
			if err := e.setupProg(p, op.body); err != nil {
				return err
			}
			if op.shortcut != nil {
				if err := e.setupProg(p, op.shortcut); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// UseSource installs a correlation source (e.g. a preprocessed
// corr.Store) on the engine's party for subsequent Infer calls. Must be
// called after Setup has bound the party.
func (e *Engine) UseSource(src mpc.CorrelationSource) error {
	if e.party == nil {
		return fmt.Errorf("pi: engine not set up")
	}
	e.party.Source = src
	return nil
}

// Infer runs the program on an input share and returns the output share.
func (e *Engine) Infer(x mpc.Share) (mpc.Share, error) {
	if e.party == nil {
		return mpc.Share{}, fmt.Errorf("pi: engine not set up")
	}
	e.feedNow = e.feed != nil && e.feedFlush%int64(e.feedEvery) == 0
	e.feedFlush++
	widx := 0
	return e.run(e.Prog, x, &widx)
}

func (e *Engine) run(prog *Program, x mpc.Share, widx *int) (mpc.Share, error) {
	p := e.party
	var err error
	for i := range prog.Ops {
		op := &prog.Ops[i]
		// Residuals time only their Add below (the branch ops trace
		// themselves through the recursion); flatten is a free reshape.
		trace := e.feedNow && op.kind != opResidual && op.kind != opFlatten
		var inShape []int
		var opStart time.Time
		if trace {
			inShape = x.Shape
			opStart = time.Now()
		}
		switch op.kind {
		case opConv, opDWConv:
			if len(x.Shape) != 4 {
				return mpc.Share{}, fmt.Errorf("pi: %s expects NCHW input, got %v", op.name, x.Shape)
			}
			dims := mpc.ConvDims{
				N: x.Shape[0], InC: x.Shape[1], H: x.Shape[2], W: x.Shape[3],
				OutC: op.convSpec.OutC, KH: op.convSpec.KH, KW: op.convSpec.KW,
				Stride: op.convSpec.Stride, Pad: op.convSpec.Pad,
			}
			if op.kind == opDWConv {
				dims.Groups = dims.InC
				dims.OutC = dims.InC
			}
			w := e.weights[*widx]
			if e.fixedMasks {
				x, err = p.Conv2DFixedW(x, w, e.fixedWs[*widx], dims)
			} else {
				x, err = p.Conv2D(x, w, dims)
			}
			*widx++
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: %s: %w", op.name, err)
			}
			if op.bias != nil {
				x, err = p.AddBias(x, op.bias)
				if err != nil {
					return mpc.Share{}, fmt.Errorf("pi: %s bias: %w", op.name, err)
				}
			}
		case opLinear:
			// The In×Out transpose was materialized once at Setup.
			w := e.weights[*widx]
			if e.fixedMasks {
				x, err = p.MatMulFixedW(x, w, e.fixedWs[*widx])
			} else {
				x, err = p.MatMul(x, w)
			}
			*widx++
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: %s: %w", op.name, err)
			}
			x, err = p.AddBiasVec(x, op.bias)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: %s bias: %w", op.name, err)
			}
		case opReLU:
			x, err = p.ReLU(x)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: relu: %w", err)
			}
		case opX2Act:
			x, err = p.X2Act(x, op.x2)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: x2act: %w", err)
			}
		case opMaxPool:
			x, err = p.MaxPool2D(x, op.k, op.k, op.stride)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: maxpool: %w", err)
			}
		case opAvgPool:
			x, err = p.AvgPool2D(x, op.k, op.k, op.stride)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: avgpool: %w", err)
			}
		case opGlobalAvgPool:
			x, err = p.GlobalAvgPool2D(x)
			if err != nil {
				return mpc.Share{}, fmt.Errorf("pi: gap: %w", err)
			}
			x = x.Reshape(x.Shape[0], x.Shape[1])
		case opFlatten:
			n := x.Shape[0]
			x = x.Reshape(n, x.Len()/n)
		case opResidual:
			saved := x
			body, err := e.run(op.body, saved, widx)
			if err != nil {
				return mpc.Share{}, err
			}
			short := saved
			if op.shortcut != nil {
				short, err = e.run(op.shortcut, saved, widx)
				if err != nil {
					return mpc.Share{}, err
				}
			}
			addStart := time.Now()
			x = p.Add(body, short)
			if e.feedNow {
				e.feed.Record(hwmodel.OpAdd, hwmodel.OpShape{FI: x.Shape[2], IC: x.Shape[1]},
					x.Shape[0], time.Since(addStart).Seconds())
			}
		default:
			return mpc.Share{}, fmt.Errorf("pi: unknown op kind %d", op.kind)
		}
		if trace {
			kind, shape := traceOp(op, inShape)
			e.feed.Record(kind, shape, inShape[0], time.Since(opStart).Seconds())
		}
	}
	return x, nil
}
