package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmbench"
	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/loadgen"
	"mmbench/internal/serve"
)

// serve-avmnist sends eager f32 avmnist/concat requests at batch 4, each
// with its own data seed, to an in-process server through its HTTP
// handler: no sockets, so the numbers measure the program rather than
// the loopback stack. Every request misses the result cache and reaches
// the batcher.
const (
	// serveRate is the open-loop Poisson rate. The closed loop reaches
	// 400–650 rps on a 2-vCPU machine, but only because it merges about
	// ten requests per forward; at the open rate merges are small and
	// each request costs several times more. At 200 rps the queue then
	// amplified interference from outside the process into a 20% spread
	// of p50 between runs; at 50 rps latency stays near service time.
	serveRate     = 50.0
	serveInFlight = 16
	serveWarmup   = 64 // requests per set-up, at serveInFlight
	serveSetups   = 3
	// serveWindow slices the closed phase: capacity is the median over
	// windows of the requests completed in each, so a few seconds of
	// interference from outside the process move it less than they move
	// the phase's mean rate.
	serveWindow = time.Second
	// serveCheckEvery picks the sampled requests whose report is
	// compared with a standalone mmbench.Run.
	serveCheckEvery = 97
)

// Seed streams keep every phase's request seeds distinct, so no request
// is a cache hit.
const (
	streamWarmup = iota + 1
	streamOpen
	streamClosed
	streamOpenTraced
)

func serveConfig(seed int64) mmbench.RunConfig {
	return mmbench.RunConfig{Workload: "avmnist", Variant: "concat", BatchSize: 4, PaperScale: true, Eager: true, Seed: seed}
}

// reply is one /v1/run outcome as the benchmark sees it.
type reply struct {
	seed   int64
	status int
	body   []byte        // kept for sampled and traced requests only
	wall   time.Duration // handler call, start to return
	// check marks a sampled request whose report is compared with a
	// standalone run.
	check bool
}

// post calls POST /v1/run in-process.
func post(h http.Handler, seed int64, check, keep bool) reply {
	body := fmt.Sprintf(`{"workload":"avmnist","variant":"concat","batch":4,"eager":true,"seed":%d}`, seed)
	req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
	rw := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rw, req)
	r := reply{seed: seed, status: rw.Code, wall: time.Since(t0), check: check}
	if check || keep || rw.Code != http.StatusOK {
		r.body = rw.Body.Bytes()
	}
	return r
}

// phase is the outcome of one load phase.
type phase struct {
	lat     []float64 // ms per request: from its due time (open) or its send (closed)
	win     []int     // closed phase: each request's window, by completion
	late    []float64 // ms the open-loop generator sent each request after its due time
	replies []reply
	elapsed time.Duration
}

func (p *phase) failed() int {
	n := 0
	for _, r := range p.replies {
		if r.status != http.StatusOK {
			n++
		}
	}
	return n
}

// openLoop sends requests on a seeded Poisson schedule regardless of
// how many are in flight, and times each from its due time, so a stall
// also charges the requests it delays.
func openLoop(h http.Handler, seed int64, stream int, dur time.Duration, keepAll bool) *phase {
	offs := loadgen.Schedule(loadgen.Config{QPS: serveRate, Duration: dur, Seed: uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)})
	n := len(offs)
	p := &phase{lat: make([]float64, n), late: make([]float64, n), replies: make([]reply, n)}
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offs {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.late[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			p.replies[i] = post(h, splitmix(seed, stream, i), i%serveCheckEvery == 0, keepAll)
			p.lat[i] = ms(time.Since(due))
		}(i, due)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// closedLoop keeps inFlight requests outstanding: each worker sends its
// next request when the previous one returns. It stops after count
// requests when count > 0, otherwise when dur has passed.
func closedLoop(h http.Handler, seed int64, stream int, dur time.Duration, count int, keepAll bool) *phase {
	var next atomic.Int64
	per := make([][]reply, serveInFlight)
	perLat := make([][]float64, serveInFlight)
	perWin := make([][]int, serveInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range serveInFlight {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (count > 0 && i >= count) || (count == 0 && time.Since(start) >= dur) {
					return
				}
				r := post(h, splitmix(seed, stream, i), i%serveCheckEvery == 0, keepAll)
				per[w] = append(per[w], r)
				perLat[w] = append(perLat[w], ms(r.wall))
				perWin[w] = append(perWin[w], int(time.Since(start)/serveWindow))
			}
		}(w)
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start)}
	for w := range per {
		p.replies = append(p.replies, per[w]...)
		p.lat = append(p.lat, perLat[w]...)
		p.win = append(p.win, perWin[w]...)
	}
	return p
}

// checkReports compares each sampled 200 reply's report with the JSON of
// a standalone mmbench.Run of the same configuration: the batcher's
// bitwise-identity contract.
func checkReports(phases ...*phase) (int, error) {
	checked := 0
	for _, p := range phases {
		for _, r := range p.replies {
			if !r.check || r.status != http.StatusOK {
				continue
			}
			var resp struct {
				Report json.RawMessage `json:"report"`
			}
			if err := json.Unmarshal(r.body, &resp); err != nil {
				return checked, fmt.Errorf("seed %d: decoding response: %v", r.seed, err)
			}
			var got bytes.Buffer
			if err := json.Compact(&got, resp.Report); err != nil {
				return checked, fmt.Errorf("seed %d: %v", r.seed, err)
			}
			rep, err := mmbench.Run(serveConfig(r.seed))
			if err != nil {
				return checked, fmt.Errorf("seed %d: standalone run: %v", r.seed, err)
			}
			want, err := json.Marshal(rep)
			if err != nil {
				return checked, err
			}
			if !bytes.Equal(got.Bytes(), want) {
				return checked, fmt.Errorf("seed %d: served report differs from standalone mmbench.Run:\n got %s\nwant %s", r.seed, got.Bytes(), want)
			}
			checked++
		}
	}
	return checked, nil
}

func runServe(o options) (*result, error) {
	var srv *serve.Server
	setups := make([]float64, serveSetups)
	for k := range setups {
		if srv != nil {
			if err := srv.Close(context.Background()); err != nil {
				return nil, fmt.Errorf("closing set-up server: %v", err)
			}
		}
		t0 := time.Now()
		srv = serve.New(serve.Options{})
		warm := closedLoop(srv.Handler(), o.seed, streamWarmup+10*k, 0, serveWarmup, false)
		setups[k] = time.Since(t0).Seconds()
		if f := warm.failed(); f > 0 {
			return nil, fmt.Errorf("%d of %d warm-up requests failed: %s", f, serveWarmup, firstFailure(warm))
		}
	}
	defer srv.Close(context.Background())
	h := srv.Handler()

	res := &result{}
	res.add(metric{name: "setup_s", unit: "s", value: median(setups), samples: len(setups),
		note: fmt.Sprintf("server + %d warm-up requests; first %.3f s", serveWarmup, setups[0])})
	if o.trace {
		return serveTraced(o, h, res)
	}

	// The open phase needs fewer seconds than the closed one for the
	// same support: 500 samples leave 25 beyond p95.
	open := openLoop(h, o.seed, streamOpen, o.seconds/3, false)
	closed := closedLoop(h, o.seed, streamClosed, o.seconds-o.seconds/3, 0, false)
	res.attempted = len(open.replies) + len(closed.replies)
	res.failed = open.failed() + closed.failed()
	checked, err := checkReports(open, closed)
	if err != nil {
		return nil, err
	}

	ok := okLatencies(open)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.50}, {"p90_ms", 0.90}, {"p95_ms", 0.95}} {
		v := quantile(ok, q.q)
		res.add(metric{name: q.name, unit: "ms", value: v, samples: len(ok),
			note: fmt.Sprintf("open phase, from due time; %d beyond", beyond(ok, v))})
	}
	// Requests still completing after the phase's last whole window are
	// left out of the rates.
	full := int(closed.elapsed / serveWindow)
	var done []int
	for i, r := range closed.replies {
		if r.status == http.StatusOK && closed.win[i] < full {
			done = append(done, closed.win[i])
		}
	}
	rates := byWindow(done, make([]float64, len(done)), func(v []float64) float64 { return float64(len(v)) / serveWindow.Seconds() })
	rps := median(rates)
	res.add(metric{name: "capacity_rps", unit: "1/s", value: rps, samples: len(done),
		note: fmt.Sprintf("closed phase, %d in flight; median of %d windows", serveInFlight, len(rates))})
	res.add(metric{name: "cells_per_s", unit: "1/s", value: rps, samples: len(done), note: "one configuration per request"})
	res.add(metric{name: "peak_rss_mb", unit: "MB", value: peakRSSMB()})
	res.notef("open phase: %d requests at %.0f rps over %v; generator late p50 %.3f ms, p99 %.3f ms, max %.3f ms",
		len(open.replies), serveRate, open.elapsed.Round(time.Millisecond), median(open.late), quantile(open.late, 0.99), quantile(open.late, 1))
	res.notef("closed phase: p50 %.3f ms per request (n=%d)", median(closed.lat), len(closed.lat))
	res.notef("correctness: %d sampled reports equal standalone mmbench.Run", checked)
	return res, nil
}

// okLatencies returns the latencies of the 200 replies.
func okLatencies(p *phase) []float64 {
	var ok []float64
	for i, r := range p.replies {
		if r.status == http.StatusOK {
			ok = append(ok, p.lat[i])
		}
	}
	return ok
}

func firstFailure(p *phase) string {
	for _, r := range p.replies {
		if r.status != http.StatusOK {
			return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
		}
	}
	return ""
}

// counters is a snapshot of the program's own counters.
type counters struct {
	stats      serve.Stats
	waitSum    float64 // seconds, from /metrics
	waitCount  float64
	panelBytes int64
	engine     engine.Stats
}

func snapshot(h http.Handler) (counters, error) {
	var c counters
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if err := json.Unmarshal(rw.Body.Bytes(), &c.stats); err != nil {
		return c, fmt.Errorf("decoding /v1/stats: %v", err)
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc := bufio.NewScanner(rw.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var dst *float64
		switch name {
		case "mmbench_queue_wait_seconds_sum":
			dst = &c.waitSum
		case "mmbench_queue_wait_seconds_count":
			dst = &c.waitCount
		default:
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return c, fmt.Errorf("/metrics %s: %v", name, err)
		}
		*dst = v
	}
	c.panelBytes = gemm.PackStats().PanelBytes
	c.engine = engine.TotalStats()
	return c, nil
}

// stageMs decodes a reply's measured per-stage walls.
func stageMs(r reply) (map[string]float64, error) {
	var resp struct {
		Stages map[string]float64 `json:"stage_latency_ms"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Stages) == 0 {
		return nil, fmt.Errorf("seed %d: no stage_latency_ms in reply", r.seed)
	}
	return resp.Stages, nil
}

// serveTraced reads the program's counters around a traced open phase
// and a traced closed phase, after an untraced open phase that gives
// the tracing overhead. Spans cannot enter the server, so the layers
// are its counters and each request's stage_latency_ms.
func serveTraced(o options, h http.Handler, res *result) (*result, error) {
	plain := openLoop(h, o.seed, streamOpen, o.seconds/4, false)
	c0, err := snapshot(h)
	if err != nil {
		return nil, err
	}
	open := openLoop(h, o.seed, streamOpenTraced, o.seconds/4, true)
	c1, err := snapshot(h)
	if err != nil {
		return nil, err
	}
	closed := closedLoop(h, o.seed, streamClosed, o.seconds/2, 0, true)
	c2, err := snapshot(h)
	if err != nil {
		return nil, err
	}
	res.attempted = len(plain.replies) + len(open.replies) + len(closed.replies)
	res.failed = plain.failed() + open.failed() + closed.failed()
	if _, err := checkReports(plain, open, closed); err != nil {
		return nil, err
	}

	// Open phase: request wall = Σ stage walls + residual.
	var residual []float64
	stageSum := map[string]float64{}
	var wallSum, residSum float64
	for _, r := range open.replies {
		if r.status != http.StatusOK {
			continue
		}
		st, err := stageMs(r)
		if err != nil {
			return nil, err
		}
		wall := ms(r.wall)
		left := wall
		for name, v := range st {
			stageSum[name] += v
			left -= v
		}
		if left < 0 {
			return nil, fmt.Errorf("layer accounting: seed %d: stages sum to %.4f ms, more than the %.4f ms request wall", r.seed, wall-left, wall)
		}
		residual = append(residual, left)
		wallSum += wall
		residSum += left
	}
	res.add(metric{name: "serve.residual_ms", unit: "ms", value: median(residual), samples: len(residual), note: "open phase, median per request"})
	if n := c1.waitCount - c0.waitCount; n > 0 {
		res.add(metric{name: "jobs.queue_wait_ms", unit: "ms", value: 1e3 * (c1.waitSum - c0.waitSum) / n, samples: int(n), note: "open phase, sum/count"})
	}
	cache := func(a, b counters) float64 {
		reqs := float64(b.stats.Cache.Hits + b.stats.Cache.Misses - a.stats.Cache.Hits - a.stats.Cache.Misses)
		return float64(b.stats.Cache.Hits+b.stats.Cache.Coalesced-a.stats.Cache.Hits-a.stats.Cache.Coalesced) / reqs
	}
	res.add(metric{name: "resultcache.hit_ratio", unit: "ratio", value: cache(c0, c2), note: "(hits+coalesced)/requests, guard: 0"})

	// Closed phase: merged forwards at capacity.
	forwards := c2.stats.Batching.MergedBatches - c1.stats.Batching.MergedBatches
	merged := c2.stats.Batching.MergedRequests - c1.stats.Batching.MergedRequests
	res.add(metric{name: "batch.forwards", unit: "count", value: float64(forwards), note: "closed phase"})
	res.add(metric{name: "batch.requests_per_forward", unit: "ratio", value: float64(merged) / float64(forwards), note: "closed phase"})
	// Every member of a merged forward carries that forward's stage
	// walls; one sample per distinct set of walls is one per forward.
	seen := map[[3]float64]bool{}
	perStage := map[string][]float64{}
	for _, r := range closed.replies {
		if r.status != http.StatusOK {
			continue
		}
		st, err := stageMs(r)
		if err != nil {
			return nil, err
		}
		key := [3]float64{st["encoder"], st["fusion"], st["head"]}
		if seen[key] {
			continue
		}
		seen[key] = true
		for _, s := range []string{"encoder", "fusion", "head"} {
			perStage[s] = append(perStage[s], st[s])
		}
	}
	for _, s := range []string{"encoder", "fusion", "head"} {
		res.add(metric{name: "mmnet." + s + "_ms", unit: "ms", value: median(perStage[s]), samples: len(perStage[s]), note: "closed phase, median per merged forward"})
	}
	res.add(metric{name: "gemm.panel_mb_per_forward", unit: "MB", value: float64(c2.panelBytes-c1.panelBytes) / (1 << 20) / float64(forwards), note: "closed phase"})
	hits := c2.engine.PoolHits - c1.engine.PoolHits
	misses := c2.engine.PoolMisses - c1.engine.PoolMisses
	res.add(metric{name: "engine.scratch_hit_ratio", unit: "ratio", value: float64(hits) / float64(hits+misses), note: "closed phase"})

	okPlain, okOpen := okLatencies(plain), okLatencies(open)
	res.notef("tracing overhead: open-phase p50 %.3f ms traced vs %.3f ms untraced (n=%d, %d)", median(okOpen), median(okPlain), len(okOpen), len(okPlain))
	res.notef("layer accounting, open phase (%d requests): wall %.1f ms = encoder %.1f + fusion %.1f + head %.1f + other (serve residual) %.1f; no residual negative, check passed",
		len(residual), wallSum, stageSum["encoder"], stageSum["fusion"], stageSum["head"], residSum)
	return res, nil
}
