package mmbench

import (
	"context"
	"fmt"

	"mmbench/internal/core"
	"mmbench/internal/device"
	"mmbench/internal/faultinject"
	"mmbench/internal/obs"
	"mmbench/internal/precision"
	"mmbench/internal/workloads"
)

// RunMergedProfiled executes several batch-compatible eager configs as
// ONE merged forward pass and returns each config's own Report, in
// order, plus the measured per-stage wall of the merged forward (shared
// by every member — it is the wall-clock the batch actually paid).
//
// Compatibility means equal BatchFingerprint: same workload, variant,
// device, scale flavour and precision policy, all eager. Per-request
// reports are bitwise identical to running each config alone (see
// core.RunMerged), so the continuous batcher can feed them into the
// result cache transparently.
func RunMergedProfiled(ctx context.Context, cfgs []RunConfig) ([]*Report, map[string]float64, error) {
	// One merged batch is one runner execution: the runner.run fault site
	// fires once, like a standalone run.
	faultinject.Hit(faultinject.SiteRunner)
	if len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("mmbench: RunMergedProfiled needs at least one config")
	}
	base := cfgs[0]
	if base.Workload == "" {
		return nil, nil, fmt.Errorf("mmbench: RunConfig.Workload is required")
	}
	if !base.Eager {
		return nil, nil, fmt.Errorf("mmbench: RunMergedProfiled requires eager configs")
	}
	bfp := base.BatchFingerprint()
	for _, cfg := range cfgs[1:] {
		if !cfg.Eager || cfg.BatchFingerprint() != bfp {
			return nil, nil, fmt.Errorf("mmbench: RunMergedProfiled configs are not batch-compatible")
		}
	}
	if base.Variant == "" {
		info, err := workloads.Get(base.Workload)
		if err != nil {
			return nil, nil, err
		}
		base.Variant = info.Fusions[0]
	}
	devName := base.Device
	if devName == "" {
		devName = "2080ti"
	}
	dev, err := device.ByName(devName)
	if err != nil {
		return nil, nil, err
	}
	pol, err := precision.ParsePolicy(base.Precision)
	if err != nil {
		return nil, nil, err
	}
	n, err := workloads.Shared(base.Workload, base.Variant, base.PaperScale)
	if err != nil {
		return nil, nil, err
	}
	members := make([]core.MemberSpec, len(cfgs))
	for i, cfg := range cfgs {
		members[i] = core.MemberSpec{BatchSize: cfg.BatchSize, Seed: cfg.Seed}
	}
	// Merged forwards are profiled unconditionally, like every eager
	// execution through the cached runner.
	prof := obs.NewProfiler()
	results, err := core.RunMerged(n, core.RunOptions{
		Device:    dev,
		Eager:     true,
		Precision: pol,
		Profiler:  prof,
		Ctx:       ctx,
	}, members)
	if err != nil {
		return nil, nil, err
	}
	reps := make([]*Report, len(cfgs))
	for i, res := range results {
		cfg := cfgs[i]
		cfg.Variant = base.Variant
		reps[i] = buildReport(cfg, devName, pol, res)
	}
	return reps, stageMillis(results[0].StageSeconds), nil
}
