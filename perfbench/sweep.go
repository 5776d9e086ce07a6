package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"mmbench"
	"mmbench/internal/jobs"
	"mmbench/internal/report"
)

// sweep-analytic is a closed loop of mmbench.RunSweep calls, the
// paper's profiling path: each sweep prices one workload's default
// variant on four devices at three batch sizes, with a fresh
// CachedRunner, as one `mmbench sweep` invocation does, on a jobs.Pool
// with one worker per CPU. It runs no eager kernels. A run covers whole
// cycles of all nine workloads, so every run sees the same mix.
var (
	sweepDevices = []string{"2080ti", "nano", "orin", "mobile"}
	sweepBatches = []int{1, 8, 32}
)

const (
	sweepSetups = 3 // each: a new pool and one warm-up sweep
	// sweepWarmup is the workload of every warm-up sweep, fixed so that
	// set-up does the same work whatever the seed.
	sweepWarmup = "mosei"
)

func sweepConfig(workload string) mmbench.SweepConfig {
	return mmbench.SweepConfig{Workload: workload, Devices: sweepDevices, Batches: sweepBatches}
}

func sweepCells() int { return len(sweepDevices) * len(sweepBatches) }

// sweepOrder is the workload order of every cycle, a permutation drawn
// from the seed: seeds vary the order, never the mix.
func sweepOrder(seed int64) []string {
	var names []string
	for _, w := range mmbench.Workloads() {
		names = append(names, w.Name)
	}
	r := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// sweepLoop runs whole cycles until dur has passed, checking every
// table against the reference. It returns each sweep's wall in ms and
// its cycle, and each cycle's wall. run makes one sweep.
func sweepLoop(order []string, ref map[string]*report.Table, dur time.Duration,
	run func(workload string) (*report.Table, error)) (lat []float64, cycle []int, walls []time.Duration, err error) {
	start := time.Now()
	for c := 0; time.Since(start) < dur; c++ {
		c0 := time.Now()
		for _, w := range order {
			t0 := time.Now()
			tab, err := run(w)
			lat = append(lat, ms(time.Since(t0)))
			cycle = append(cycle, c)
			if err != nil {
				return lat, cycle, walls, fmt.Errorf("sweep %s: %v", w, err)
			}
			if !reflect.DeepEqual(tab, ref[w]) {
				return lat, cycle, walls, fmt.Errorf("sweep %s: table differs from the sequential uncached sweep", w)
			}
		}
		walls = append(walls, time.Since(c0))
	}
	return lat, cycle, walls, nil
}

func runSweep(o options) (*result, error) {
	order := sweepOrder(o.seed)
	// The oracle: a sequential, uncached sweep of every workload.
	t0 := time.Now()
	ref := map[string]*report.Table{}
	for _, w := range order {
		tab, err := mmbench.RunSweep(sweepConfig(w), mmbench.Run, nil)
		if err != nil {
			return nil, fmt.Errorf("reference sweep %s: %v", w, err)
		}
		ref[w] = tab
	}
	refTime := time.Since(t0)

	workers := runtime.NumCPU()
	var pool *jobs.Pool
	setups := make([]float64, sweepSetups)
	for k := range setups {
		if pool != nil {
			if err := pool.Shutdown(context.Background()); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		pool = jobs.NewPool(workers, 4*workers)
		tab, err := mmbench.RunSweep(sweepConfig(sweepWarmup), mmbench.NewCachedRunner(64<<20).Run, pool)
		setups[k] = time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(tab, ref[sweepWarmup]) {
			return nil, fmt.Errorf("warm-up sweep %s differs from the sequential uncached sweep", sweepWarmup)
		}
	}
	defer pool.Shutdown(context.Background())

	res := &result{}
	res.add(metric{name: "setup_s", unit: "s", value: median(setups), samples: len(setups),
		note: fmt.Sprintf("pool + one warm-up sweep; first %.3f s", setups[0])})
	res.notef("reference: sequential uncached sweeps of %d workloads took %.3f s (not in setup_s)", len(order), refTime.Seconds())
	plainSweep := func(w string) (*report.Table, error) {
		return mmbench.RunSweep(sweepConfig(w), mmbench.NewCachedRunner(64<<20).Run, pool)
	}
	if o.trace {
		return sweepTraced(o, res, order, ref, pool, workers, plainSweep)
	}

	// Every timed metric is taken per cycle, then the median over the
	// cycles: per cycle the nearest-rank p50 is the fifth-slowest sweep
	// and p90 and p95 the slowest, so each median is over one group.
	lat, cycle, walls, err := sweepLoop(order, ref, o.seconds, plainSweep)
	res.attempted = len(lat)
	if err != nil {
		return nil, err
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.50}, {"p90_ms", 0.90}, {"p95_ms", 0.95}} {
		per := byWindow(cycle, lat, func(v []float64) float64 { return quantile(v, q.q) })
		res.add(metric{name: q.name, unit: "ms", value: median(per), samples: len(lat),
			note: fmt.Sprintf("per sweep; median of %d cycles", len(per))})
	}
	perCycle := func(n int) float64 {
		rates := make([]float64, len(walls))
		for i, w := range walls {
			rates[i] = float64(n) / w.Seconds()
		}
		return median(rates)
	}
	res.add(metric{name: "capacity_rps", unit: "1/s", value: perCycle(len(order)), samples: len(lat),
		note: fmt.Sprintf("sweeps per second, one caller; median of %d cycles", len(walls))})
	res.add(metric{name: "cells_per_s", unit: "1/s", value: perCycle(len(order) * sweepCells()), samples: len(lat) * sweepCells(),
		note: fmt.Sprintf("median of %d cycles", len(walls))})
	res.add(metric{name: "peak_rss_mb", unit: "MB", value: peakRSSMB()})
	res.notef("correctness: %d sweep tables equal the sequential uncached sweep", len(lat))
	return res, nil
}

// sweepTraced spends half the run on untraced cycles, for the tracing
// overhead, and half on traced cycles whose cells make mmbench.Run's
// layer calls one by one behind the same CachedRunner and pool.
func sweepTraced(o options, res *result, order []string, ref map[string]*report.Table, pool *jobs.Pool, workers int,
	plainSweep func(string) (*report.Table, error)) (*result, error) {
	plain, _, _, err := sweepLoop(order, ref, o.seconds/2, plainSweep)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	var kernels, cells atomic.Int64
	lat, _, _, err := sweepLoop(order, ref, o.seconds/2, func(w string) (tab *report.Table, err error) {
		rec.time(0, 0, "sweep", func(op int64) {
			cr := mmbench.NewCachedRunner(64 << 20)
			run := func(cfg mmbench.RunConfig) (rep *mmbench.Report, err error) {
				rec.time(op, op, "cell", func(cell int64) {
					rep, _, err = cr.RunProfiledCtxThrough(context.Background(), cfg,
						func(_ context.Context, cfg mmbench.RunConfig) (*mmbench.Report, map[string]float64, error) {
							rep, _, err := tracedRun(rec, op, cell, cfg)
							return rep, nil, err
						})
				})
				if err == nil {
					kernels.Add(int64(rep.Kernels))
					cells.Add(1)
				}
				return rep, err
			}
			tab, err = mmbench.RunSweep(sweepConfig(w), run, pool)
		})
		return tab, err
	})
	if err != nil {
		return nil, err
	}
	res.attempted = len(plain) + len(lat)

	total := rec.totals()
	n := float64(cells.Load())
	perCell := func(name string, spans ...string) {
		var sum int64
		for _, s := range spans {
			sum += total[s]
		}
		res.add(metric{name: name, unit: "ms", value: ms(time.Duration(sum)) / n, samples: int(n), note: "mean per cell, whole cycles"})
	}
	perCell("workloads.build_ms", "workloads.Build")
	perCell("plan.compile_ms", "plan.Compile")
	perCell("plan.replay_ms", "plan.Replay", "trace.Finish")
	perCell("memprof.measure_ms", "memprof.Measure")
	perCell("metrics.report_ms", "metrics.report")
	self, wall, err := accountingNote(res, rec, workers, "jobs.idle", "cell")
	if err != nil {
		return nil, err
	}
	res.add(metric{name: "jobs.idle_share", unit: "ratio", value: float64(self["jobs.idle"]) / float64(wall), samples: len(lat),
		note: fmt.Sprintf("1 - cell walls / (%d workers x sweep wall)", workers)})
	res.add(metric{name: "trace.kernels_per_cell", unit: "count", value: float64(kernels.Load()) / n, samples: int(n), note: "guard"})
	res.notef("tracing overhead: p50 %.3f ms traced vs %.3f ms untraced (n=%d, %d)", median(lat), median(plain), len(lat), len(plain))
	return res, rec.write(o.spans)
}
