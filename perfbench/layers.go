package main

import (
	"math"

	"mmbench"
	"mmbench/internal/data"
	"mmbench/internal/device"
	"mmbench/internal/memprof"
	"mmbench/internal/metrics"
	"mmbench/internal/mmnet"
	"mmbench/internal/obs"
	"mmbench/internal/ops"
	"mmbench/internal/plan"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
	"mmbench/internal/trace"
	"mmbench/internal/workloads"
)

// tracedRun makes the calls mmbench.Run makes for one configuration, in
// the same order, with a benchmark span around each call into a layer.
// The spans are children of parent in operation op. Calls left without
// a span of their own (config resolution, validation, the output-error
// loop, the capacity penalty) are the parent's self time.
//
// It returns the report mmbench.Run would return, so the workloads can
// check it against the untraced path, and for eager runs the policy
// forward's profile, from which the kernel-class metrics come.
func tracedRun(rec *recorder, op, parent int64, cfg mmbench.RunConfig) (*mmbench.Report, *obs.Profile, error) {
	if cfg.Variant == "" {
		info, err := workloads.Get(cfg.Workload)
		if err != nil {
			return nil, nil, err
		}
		cfg.Variant = info.Fusions[0]
	}
	if cfg.Device == "" {
		cfg.Device = "2080ti"
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	dev, err := device.ByName(cfg.Device)
	if err != nil {
		return nil, nil, err
	}
	pol, err := precision.ParsePolicy(cfg.Precision)
	if err != nil {
		return nil, nil, err
	}
	in := func(name string, fn func()) { rec.time(op, parent, name, func(int64) { fn() }) }

	var n *mmnet.Network
	in("workloads.Build", func() { n, err = workloads.Build(cfg.Workload, cfg.Variant, cfg.PaperScale, 42) })
	if err != nil {
		return nil, nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	builder := trace.NewBuilder(dev, n.Modalities)

	var prof *obs.Profiler
	var errMax, errMean float64
	if cfg.Eager {
		in("plan.Prologue", func() { err = plan.Prologue(builder, n, cfg.BatchSize) })
		if err != nil {
			return nil, nil, err
		}
		var batch *data.Batch
		in("data.Batch", func() { batch = n.Gen.Batch(tensor.NewRNG(seed), cfg.BatchSize) })
		prof = obs.NewProfiler()
		var out, ref *ops.Var
		in("mmnet.Forward", func() {
			out = n.Forward(&ops.Ctx{Rec: builder, Precision: pol, Prof: prof.Root()}, batch)
		})
		if !pol.AllF32() {
			in("core.referenceForward", func() { ref = n.Forward(&ops.Ctx{}, batch) })
			errMax, errMean = outputError(out, ref)
		}
		in("plan.Epilogue", func() { plan.Epilogue(builder, out.Value.Bytes()) })
	} else {
		var p *plan.Plan
		in("plan.Compile", func() { p, err = plan.Compile(n, plan.Options{BatchSize: cfg.BatchSize, Precision: pol}) })
		if err != nil {
			return nil, nil, err
		}
		in("plan.Replay", func() { p.Replay(builder) })
	}

	var tr *trace.Trace
	in("trace.Finish", func() { tr = builder.Finish() })
	var mem memprof.Profile
	in("memprof.Measure", func() { mem = memprof.Measure(n, tr, cfg.BatchSize) })
	latency := tr.Wall * dev.CapacityPenalty(mem.AllocatorDemand())
	var sealed *obs.Profile
	if prof != nil {
		obs.ObserveStageLatencies(prof.StageWall())
		sealed = prof.Finish()
	}

	var rep *mmbench.Report
	in("metrics.report", func() { rep = buildReport(cfg, pol, tr, mem, latency, errMax, errMean) })
	return rep, sealed, nil
}

// outputError is the element-wise comparison core.Run makes between a
// low-precision output and the f32 reference.
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

// buildReport assembles the report from the run's trace with the
// metrics calls mmbench.Run makes, in its order.
func buildReport(cfg mmbench.RunConfig, pol precision.Policy, tr *trace.Trace, mem memprof.Profile, latency, errMax, errMean float64) *mmbench.Report {
	var polName string
	if !pol.AllF32() {
		polName = pol.String()
	}
	r := &mmbench.Report{
		Workload:        cfg.Workload,
		Variant:         cfg.Variant,
		Device:          cfg.Device,
		Batch:           cfg.BatchSize,
		Precision:       polName,
		OutputErrMax:    errMax,
		OutputErrMean:   errMean,
		LatencySeconds:  latency,
		GPUSeconds:      tr.GPUBusy(),
		HostSeconds:     tr.HostBusy,
		TransferSeconds: tr.TransferSeconds,
		CPUShare:        metrics.HostShare(tr),
		Kernels:         len(tr.Kernels),
		ModalitySeconds: metrics.ModalityTimes(tr),
		Memory: mmbench.MemoryMB{
			Model:        float64(mem.ModelBytes) / (1 << 20),
			Dataset:      float64(mem.DatasetBytes) / (1 << 20),
			Intermediate: float64(mem.IntermediateBytes) / (1 << 20),
		},
	}
	for _, stage := range mmnet.Stages() {
		res := metrics.StageResources(tr)[stage]
		r.Stages = append(r.Stages, mmbench.StageStat{
			Stage: stage, Seconds: res.Seconds,
			DRAMUtil: res.DRAMUtil, Occupancy: res.Occupancy,
			GldEff: res.GldEff, GstEff: res.GstEff, IPC: res.IPC,
		})
	}
	r.KernelClassShares = make(map[string]map[string]float64)
	for stage, classes := range metrics.ClassShares(tr) {
		if stage == "" {
			continue
		}
		m := make(map[string]float64, len(classes))
		for c, share := range classes {
			m[c.String()] = share
		}
		r.KernelClassShares[stage] = m
	}
	stalls := metrics.StallBreakdown(tr, nil)
	r.StallShares = make(map[string]float64, len(stalls))
	for i, s := range stalls {
		r.StallShares[device.StallReason(i).String()] = s
	}
	return r
}
