// Package core is MMBench's suite runner: the end-to-end profiling
// pipeline (Figure 3 of the paper) and the experiment drivers that
// regenerate every table and figure of the evaluation section.
package core

import (
	"context"

	"math"

	"mmbench/internal/device"
	"mmbench/internal/engine"
	"mmbench/internal/memprof"
	"mmbench/internal/mmnet"
	"mmbench/internal/obs"
	"mmbench/internal/ops"
	"mmbench/internal/plan"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
	"mmbench/internal/trace"
	"mmbench/internal/workloads"
)

// RunOptions configure one profiled run.
type RunOptions struct {
	// Device is the hardware profile; defaults to the RTX 2080 Ti server.
	Device *device.Profile
	// BatchSize defaults to 32.
	BatchSize int
	// Eager executes real numerics instead of the dataset-free analytic
	// abstraction (slower; required only when outputs matter).
	Eager bool
	// Seed drives data generation in eager mode.
	Seed int64
	// Engine runs the eager kernels; nil uses the process default
	// (worker count from -compute-workers). Results are identical at any
	// worker count, so the engine never participates in cache keys.
	Engine *engine.Engine
	// UnfusedAttention forces the unfused reference attention
	// composition instead of the fused streaming-softmax kernel
	// (default: the process-wide -unfused-attention setting).
	UnfusedAttention bool
	// SequentialBranches forces the sequential encoder-branch loop
	// instead of the modality-parallel branch executor (default: the
	// process-wide -branch-parallel setting). Either way the run is
	// bitwise identical, so the toggle never participates in cache keys.
	SequentialBranches bool
	// Precision is the per-stage storage-precision policy (the
	// -precision flag). Unlike the toggles above it changes results —
	// eager outputs numerically, analytic traces through the
	// precision-scaled kernel costs — so it must participate in cache
	// keys. The zero policy is all-float32 and leaves the run
	// bit-identical to a build with no mixed-precision support.
	Precision precision.Policy
	// Profiler, when non-nil on an eager run, records wall-clock kernel
	// and stage spans. It is a pure observer (results and traces stay
	// bitwise identical, so it never participates in cache keys) and is
	// ignored on analytic runs, which execute no kernels to time.
	Profiler *obs.Profiler
	// Ctx, when non-nil and cancellable, makes the run cooperative: its
	// cancellation (or deadline) stops the engine's chunk dispatch within
	// one chunk boundary and aborts the run at the next stage-boundary
	// checkpoint, returning ctx.Err(). Uncancelled runs stay bitwise
	// identical to runs with no context (the flag costs one atomic load
	// per chunk claim and per checkpoint).
	Ctx context.Context
}

func (o *RunOptions) defaults() {
	if o.Device == nil {
		o.Device = device.RTX2080Ti()
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// RunResult is the outcome of one profiled inference.
type RunResult struct {
	// Network is the network the run executed. Runs through BuildAndRun
	// hand out the process-wide shared instance (workloads.Shared), so
	// it is read-only: never train or otherwise write it.
	Network *mmnet.Network
	Trace   *trace.Trace
	Memory  memprof.Profile
	// Latency is the modeled end-to-end wall time including the
	// device's memory-capacity penalty.
	Latency float64
	// Output is the task output (nil shapes in analytic mode).
	Output *ops.Var
	// OutputErrMax and OutputErrMean measure the low-precision output
	// against a float32 reference forward over the same batch: the
	// largest and mean absolute element error. They are populated only
	// for eager runs under a non-trivial precision policy (analytic
	// runs have no numerics to compare).
	OutputErrMax  float64
	OutputErrMean float64
	// StageSeconds is the measured per-stage wall-clock time of the
	// eager forward (profiled runs only; nil otherwise). It lives beside
	// the report fields, never inside them, so profiled and unprofiled
	// reports marshal byte-identically.
	StageSeconds map[string]float64
}

// Run profiles one inference of the network: host-side loading and
// preprocessing per modality, host→device transfers, the three network
// stages in per-modality streams with a fusion join, and the final
// device→host copy.
func Run(n *mmnet.Network, opts RunOptions) (res *RunResult, err error) {
	opts.defaults()
	if err := n.Validate(); err != nil {
		return nil, err
	}

	// Cancellable runs derive a per-run engine handle carrying a Cancel
	// flag; a watcher goroutine translates context cancellation into one
	// flag signal. The recover below classifies checkpoint aborts
	// (engine.AbortReason) back into ordinary errors — any other panic
	// re-raises untouched.
	var cancelFlag *engine.Cancel
	if ctx := opts.Ctx; ctx != nil && ctx.Done() != nil {
		// An already-dead context never starts the run; relying on the
		// watcher goroutine for this would race the forward on fast runs.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cancelFlag = engine.NewCancel()
		eng := opts.Engine
		if eng == nil {
			eng = engine.Default()
		}
		opts.Engine = eng.WithCancel(cancelFlag)
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				cancelFlag.Signal(ctx.Err())
			case <-stop:
			}
		}()
		defer func() {
			if r := recover(); r != nil {
				reason, ok := engine.AbortReason(r)
				if !ok {
					panic(r)
				}
				res, err = nil, reason
			}
		}()
	}

	builder := trace.NewBuilder(opts.Device, n.Modalities)

	var out *ops.Var
	var errMax, errMean float64
	profiled := false
	if opts.Eager {
		// Eager runs walk the plan's event schedule live: the prologue
		// and epilogue come from the plan package (the same emission the
		// compiler captures), and the forward drives the builder while
		// executing real numerics.
		if err := plan.Prologue(builder, n, opts.BatchSize); err != nil {
			return nil, err
		}
		batch := n.Gen.Batch(tensor.NewRNG(opts.Seed), opts.BatchSize)
		c := &ops.Ctx{
			Rec:                builder,
			Eng:                opts.Engine,
			UnfusedAttention:   opts.UnfusedAttention,
			SequentialBranches: opts.SequentialBranches,
			Precision:          opts.Precision,
		}
		if opts.Profiler != nil {
			c.Prof = opts.Profiler.Root()
			profiled = true
		}
		out = n.Forward(c, batch)

		// Under a low-precision policy an eager run also executes the f32
		// reference forward (unrecorded, so the trace prices only the
		// policy run) and reports the output error against it — the
		// accuracy-delta axis of a mixed-precision sweep.
		if !opts.Precision.AllF32() {
			ref := n.Forward(&ops.Ctx{
				Eng:                opts.Engine,
				UnfusedAttention:   opts.UnfusedAttention,
				SequentialBranches: opts.SequentialBranches,
			}, batch)
			errMax, errMean = outputError(out, ref)
		}

		// Final abort checkpoint: a cancellation that fired after the last
		// stage boundary left garbage in the outputs (skipped chunks), so the
		// run must not be reported as a result.
		if cancelFlag.Cancelled() {
			return nil, cancelFlag.Reason()
		}
		plan.Epilogue(builder, out.Value.Bytes())
	} else {
		// Analytic runs compile the network into an explicit stage plan —
		// the captured event sequence of one abstract forward — and replay
		// it into the trace builder. The replayed trace is byte-identical
		// to driving the builder live.
		p, err := plan.Compile(n, plan.Options{
			BatchSize:          opts.BatchSize,
			Precision:          opts.Precision,
			Engine:             opts.Engine,
			UnfusedAttention:   opts.UnfusedAttention,
			SequentialBranches: opts.SequentialBranches,
		})
		if err != nil {
			return nil, err
		}
		if cancelFlag.Cancelled() {
			return nil, cancelFlag.Reason()
		}
		p.Replay(builder)
		out = p.Output
	}

	tr := builder.Finish()
	mem := memprof.Measure(n, tr, opts.BatchSize)
	latency := tr.Wall * opts.Device.CapacityPenalty(mem.AllocatorDemand())

	var stageSec map[string]float64
	if profiled {
		stageSec = opts.Profiler.StageWall()
		// Feed the process-wide per-stage histograms here — on real
		// executions only, so cache hits never double-observe.
		obs.ObserveStageLatencies(stageSec)
	}

	return &RunResult{
		Network: n, Trace: tr, Memory: mem, Latency: latency, Output: out,
		OutputErrMax: errMax, OutputErrMean: errMean, StageSeconds: stageSec,
	}, nil
}

// outputError compares a low-precision output tensor against the f32
// reference element-wise.
func outputError(got, ref *ops.Var) (errMax, errMean float64) {
	gd, rd := got.Value.Data(), ref.Value.Data()
	if len(gd) != len(rd) || len(gd) == 0 {
		return 0, 0
	}
	var sum float64
	for i := range gd {
		e := math.Abs(float64(gd[i]) - float64(rd[i]))
		if e > errMax {
			errMax = e
		}
		sum += e
	}
	return errMax, sum / float64(len(gd))
}

// BuildAndRun is a convenience wrapper: fetch a workload variant from
// the process-wide network cache (workloads.Shared) and profile it.
func BuildAndRun(workload, variant string, profile bool, opts RunOptions) (*RunResult, error) {
	n, err := workloads.Shared(workload, variant, profile)
	if err != nil {
		return nil, err
	}
	return Run(n, opts)
}
