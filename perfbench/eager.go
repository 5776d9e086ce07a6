package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"mmbench"
	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/obs"
)

// eager-mosei-i8 is one caller in a closed loop of mmbench.RunProfiled
// calls on mosei/concat at batch 4 under the i8 policy, each with its
// own data seed. It is bound by kernel time and pays the f32 reference
// forward, and it bypasses serve, cache, batcher and pool.
const (
	eagerSetups = 3 // untimed warm-up calls
	// eagerErrBound is the output-error bound the serve precision tests
	// hold i8 runs to.
	eagerErrBound = 0.1
)

const (
	streamEagerWarmup = iota + 101
	streamEager
	streamEagerTraced
)

func eagerConfig(seed int64) mmbench.RunConfig {
	return mmbench.RunConfig{Workload: "mosei", Variant: "concat", BatchSize: 4, PaperScale: true, Eager: true, Precision: "i8", Seed: seed}
}

// checkPrecision holds an i8 report to the error bound: the error
// against the f32 reference is measured (non-zero), within the bound,
// and its mean is at most its max.
func checkPrecision(rep *mmbench.Report) error {
	if rep.Precision == "" {
		return fmt.Errorf("seed run reports no precision policy")
	}
	if !(rep.OutputErrMax > 0 && rep.OutputErrMax <= eagerErrBound) {
		return fmt.Errorf("OutputErrMax %g outside (0, %g]", rep.OutputErrMax, eagerErrBound)
	}
	if rep.OutputErrMean > rep.OutputErrMax {
		return fmt.Errorf("OutputErrMean %g exceeds OutputErrMax %g", rep.OutputErrMean, rep.OutputErrMax)
	}
	return nil
}

// eagerLoop calls mmbench.RunProfiled back to back until dur has passed
// and returns each call's wall in ms.
func eagerLoop(seed int64, stream int, dur time.Duration) ([]float64, time.Duration, error) {
	var lat []float64
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		cfg := eagerConfig(splitmix(seed, stream, i))
		t0 := time.Now()
		rep, _, err := mmbench.RunProfiled(cfg)
		lat = append(lat, ms(time.Since(t0)))
		if err != nil {
			return lat, 0, fmt.Errorf("seed %d: %v", cfg.Seed, err)
		}
		if err := checkPrecision(rep); err != nil {
			return lat, 0, fmt.Errorf("seed %d: %v", cfg.Seed, err)
		}
	}
	return lat, time.Since(start), nil
}

func runEager(o options) (*result, error) {
	setups := make([]float64, eagerSetups)
	for k := range setups {
		t0 := time.Now()
		rep, _, err := mmbench.RunProfiled(eagerConfig(splitmix(o.seed, streamEagerWarmup, k)))
		setups[k] = time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		if err := checkPrecision(rep); err != nil {
			return nil, err
		}
	}
	res := &result{}
	res.add(metric{name: "setup_s", unit: "s", value: median(setups), samples: len(setups),
		note: fmt.Sprintf("one warm-up call each; first %.3f s", setups[0])})
	if o.trace {
		return eagerTraced(o, res)
	}

	lat, elapsed, err := eagerLoop(o.seed, streamEager, o.seconds)
	res.attempted = len(lat)
	if err != nil {
		return nil, err
	}
	p50, p90, p95 := median(lat), quantile(lat, 0.90), quantile(lat, 0.95)
	res.add(metric{name: "p50_ms", unit: "ms", value: p50, samples: len(lat), note: "per mmbench.RunProfiled call"})
	res.add(metric{name: "p90_ms", unit: "ms", value: p90, samples: len(lat), note: fmt.Sprintf("%d beyond", beyond(lat, p90))})
	res.add(metric{name: "p95_ms", unit: "ms", value: p95, samples: len(lat), note: fmt.Sprintf("%d beyond", beyond(lat, p95))})
	rate := float64(len(lat)) / elapsed.Seconds()
	res.add(metric{name: "capacity_rps", unit: "1/s", value: rate, samples: len(lat), note: "calls per second, one caller"})
	res.add(metric{name: "cells_per_s", unit: "1/s", value: rate, samples: len(lat), note: "one configuration per call"})
	res.add(metric{name: "peak_rss_mb", unit: "MB", value: peakRSSMB()})
	res.notef("correctness: %d calls with OutputErrMax in (0, %g] and mean <= max", len(lat), eagerErrBound)
	return res, nil
}

// opsClass maps a kernel class to its per-layer metric.
func opsClass(class string) string {
	switch c := strings.ToLower(class); c {
	case "gemm", "elewise", "conv", "bnorm", "relu", "pooling", "reduce":
		return "ops." + c + "_ms"
	}
	return "ops.other_ms"
}

// eagerTraced spends half the run on untraced calls, which give the
// untraced p50 the tracing overhead is measured against, and half on
// traced calls that make mmbench.RunProfiled's layer calls one by one.
func eagerTraced(o options, res *result) (*result, error) {
	plain, _, err := eagerLoop(o.seed, streamEager, o.seconds/2)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	var walls []float64
	perCall := map[string][]float64{} // layer metric → value per call
	pack0, eng0 := gemm.PackStats(), engine.TotalStats()
	start := time.Now()
	for i := 0; time.Since(start) < o.seconds/2; i++ {
		cfg := eagerConfig(splitmix(o.seed, streamEagerTraced, i))
		var rep *mmbench.Report
		var prof *obs.Profile
		var terr error
		root := rec.time(0, 0, "call", func(id int64) { rep, prof, terr = tracedRun(rec, id, id, cfg) })
		if terr != nil {
			return nil, fmt.Errorf("seed %d: %v", cfg.Seed, terr)
		}
		if err := checkPrecision(rep); err != nil {
			return nil, fmt.Errorf("seed %d: %v", cfg.Seed, err)
		}
		if i == 0 {
			// The traced calls must be the program's calls: the report
			// equals mmbench.Run's for the same configuration.
			if err := sameReport(rep, cfg); err != nil {
				return nil, err
			}
		}
		busy := map[string]float64{}
		var flops, bytes float64
		for _, sp := range prof.Spans {
			busy[opsClass(sp.Class.String())] += sp.DurSeconds() * 1e3
			flops += float64(sp.FLOPs)
			bytes += float64(sp.Bytes)
		}
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "ops.") && strings.HasSuffix(m.name, "_ms") {
				perCall[m.name] = append(perCall[m.name], busy[m.name])
			}
		}
		perCall["ops.gflop"] = append(perCall["ops.gflop"], flops/1e9)
		perCall["ops.computed_mb"] = append(perCall["ops.computed_mb"], bytes/(1<<20))
		for name, d := range rec.opSpans(root) {
			perCall[name] = append(perCall[name], ms(time.Duration(d)))
		}
		walls = append(walls, perCall["call"][len(perCall["call"])-1])
	}
	pack1, eng1 := gemm.PackStats(), engine.TotalStats()
	res.attempted = len(plain) + len(walls)

	layer := func(metricName string, spans ...string) float64 {
		v := make([]float64, len(walls))
		for _, s := range spans {
			for i, d := range perCall[s] {
				v[i] += d
			}
		}
		m := median(v)
		res.add(metric{name: metricName, unit: "ms", value: m, samples: len(v), note: "median per call"})
		return m
	}
	build := layer("workloads.build_ms", "workloads.Build")
	batch := layer("data.batch_ms", "data.Batch")
	fwd := layer("mmnet.forward_ms", "mmnet.Forward")
	ref := layer("core.reference_forward_ms", "core.referenceForward")
	layer("plan.replay_ms", "plan.Prologue", "plan.Epilogue", "trace.Finish")
	layer("memprof.measure_ms", "memprof.Measure")
	layer("metrics.report_ms", "metrics.report")
	res.add(metric{name: "core.other_ms", unit: "ms", value: median(plain) - build - batch - fwd - ref,
		note: "untraced p50 minus build, batch, forward and reference forward"})
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "ops.") {
			res.add(metric{name: m.name, unit: m.unit, value: median(perCall[m.name]), samples: len(walls), note: "i8 forward, median per call"})
		}
	}
	forwards := float64(2 * len(walls)) // the i8 forward and the f32 reference
	res.add(metric{name: "gemm.panel_mb_per_forward", unit: "MB", value: float64(pack1.PanelBytes-pack0.PanelBytes) / (1 << 20) / forwards, note: "traced calls, per Network.Forward"})
	hits, misses := eng1.PoolHits-eng0.PoolHits, eng1.PoolMisses-eng0.PoolMisses
	res.add(metric{name: "engine.scratch_hit_ratio", unit: "ratio", value: float64(hits) / float64(hits+misses), note: "traced calls"})

	res.notef("tracing overhead: p50 %.3f ms traced vs %.3f ms untraced (n=%d, %d)", median(walls), median(plain), len(walls), len(plain))
	if _, _, err := accountingNote(res, rec, 1, "other"); err != nil {
		return nil, err
	}
	return res, rec.write(o.spans)
}

// sameReport checks a traced report against mmbench.Run's.
func sameReport(rep *mmbench.Report, cfg mmbench.RunConfig) error {
	want, err := mmbench.Run(cfg)
	if err != nil {
		return err
	}
	a, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return fmt.Errorf("traced run of %s/%s batch %d on %s differs from mmbench.Run:\n got %s\nwant %s",
			cfg.Workload, cfg.Variant, cfg.BatchSize, cfg.Device, a, b)
	}
	return nil
}
