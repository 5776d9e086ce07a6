package mmbench

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"strconv"

	"mmbench/internal/precision"
	"mmbench/internal/resultcache"
	"mmbench/internal/workloads"
)

// CachedRunner wraps Run with a config-keyed result cache. Analytic
// profiling is a pure function of RunConfig, so equal configs (after
// default resolution) always return the same Report; the runner serves
// repeats from memory and coalesces concurrent identical requests into
// a single underlying execution. Entries are kept as the report's
// canonical JSON and decoded on every return, so each caller owns the
// Report (and stage map) it gets back. Executions run on the
// process-wide shared networks (workloads.Shared), so a miss pays no
// network build once its workload variant has run.
type CachedRunner struct {
	cache *resultcache.Cache
}

// NewCachedRunner builds a runner whose cache holds about
// capacityBytes of reports (LRU-evicted beyond that).
func NewCachedRunner(capacityBytes int64) *CachedRunner {
	return &CachedRunner{cache: resultcache.New(capacityBytes)}
}

// cachedRun is a cache entry: the report's canonical JSON plus the
// per-stage wall-clock milliseconds measured when the entry was
// produced (nil for analytic runs). Caching them together keeps Run and
// RunProfiled on one cache key — profiling is a pure observer, so it
// never forks entries. The JSON form is several times smaller in heap
// than the decoded report graph and is exactly what the budget charges;
// float64 values round-trip JSON exactly, so a decoded report equals
// the executed one.
type cachedRun struct {
	report  []byte
	stageMs map[string]float64
}

// newCachedRun encodes one execution's result as a cache entry. The
// error is a report JSON cannot encode (a NaN or infinite value).
func newCachedRun(rep *Report, stageMs map[string]float64) (*cachedRun, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("mmbench: encoding report for the cache: %w", err)
	}
	return &cachedRun{report: b, stageMs: stageMs}, nil
}

// open decodes the entry into a Report and stage map owned by the
// caller.
func (cv *cachedRun) open() (*Report, map[string]float64, error) {
	rep := new(Report)
	if err := json.Unmarshal(cv.report, rep); err != nil {
		return nil, nil, fmt.Errorf("mmbench: decoding cached report: %w", err)
	}
	return rep, maps.Clone(cv.stageMs), nil
}

// Run is the cached equivalent of the package-level Run.
func (cr *CachedRunner) Run(cfg RunConfig) (*Report, error) {
	rep, _, err := cr.do(nil, cfg, nil)
	return rep, err
}

// RunCtx is Run under a cancellable context. A cancelled execution
// returns ctx.Err() and is never cached: the failure belongs to the
// cancelled request, and concurrent requests coalesced onto it retry
// with their own context instead of inheriting the error.
func (cr *CachedRunner) RunCtx(ctx context.Context, cfg RunConfig) (*Report, error) {
	rep, _, err := cr.do(ctx, cfg, nil)
	return rep, err
}

// RunProfiled is the cached equivalent of the package-level
// RunProfiled. Cache hits return the stage latencies measured when the
// entry was executed; only real executions observe into the
// process-wide stage histograms, so hits never skew the distributions.
func (cr *CachedRunner) RunProfiled(cfg RunConfig) (*Report, map[string]float64, error) {
	return cr.do(nil, cfg, nil)
}

// RunProfiledCtx is RunProfiled under a cancellable context (see
// RunCtx).
func (cr *CachedRunner) RunProfiledCtx(ctx context.Context, cfg RunConfig) (*Report, map[string]float64, error) {
	return cr.do(ctx, cfg, nil)
}

// ComputeFn is one real (cache-missing) profile execution, run under
// ctx. It is the unit an execution wrapper (RunProfiledCtxVia) may
// reschedule; the returned value is the opaque cache entry.
type ComputeFn func(ctx context.Context) (any, error)

// RunProfiledCtxVia is RunProfiledCtx with an execution wrapper: via
// receives the real computation and decides how (and whether) to run
// it — the serve layer routes it through scheduler admission control.
// Cache hits and coalesced waiters never invoke via, so repeated or
// concurrent identical requests cost one admission and one execution
// no matter how many clients ask. via must either return compute's
// result unchanged or an error; errors (including shed admissions) are
// never cached and never shared with coalesced waiters.
func (cr *CachedRunner) RunProfiledCtxVia(ctx context.Context, cfg RunConfig, via func(compute ComputeFn) (any, error)) (*Report, map[string]float64, error) {
	return cr.do(ctx, cfg, via)
}

// ExecFn replaces the underlying computation of one cache-missing run:
// instead of the default RunProfiledCtx, the cache entry comes from
// exec's result. The continuous batcher rides this — a cache miss is
// handed to the batcher, which may merge it with other pending misses
// into one forward; the scattered per-request report then lands in the
// cache exactly as a standalone execution's would (the bitwise-identity
// contract makes the two indistinguishable).
type ExecFn func(ctx context.Context, cfg RunConfig) (*Report, map[string]float64, error)

// RunProfiledCtxThrough is RunProfiledCtx with the computation replaced
// by exec on cache miss. Cache hits and coalesced identical requests
// never invoke exec, so the layering is: identical configs coalesce in
// the cache ABOVE the batcher, and distinct-but-compatible configs merge
// in the batcher BELOW it. Errors are never cached.
func (cr *CachedRunner) RunProfiledCtxThrough(ctx context.Context, cfg RunConfig, exec ExecFn) (*Report, map[string]float64, error) {
	return cr.lookup(cfg, func() (any, error) {
		rep, stageMs, err := exec(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return newCachedRun(rep, stageMs)
	})
}

func (cr *CachedRunner) do(ctx context.Context, cfg RunConfig, via func(ComputeFn) (any, error)) (*Report, map[string]float64, error) {
	compute := func(cctx context.Context) (any, error) {
		// Eager executions are profiled unconditionally (the profiler is
		// a pure observer), so every real run — sweeps included — feeds
		// the per-stage latency histograms behind /metrics.
		rep, stageMs, err := RunProfiledCtx(cctx, cfg)
		if err != nil {
			return nil, err
		}
		return newCachedRun(rep, stageMs)
	}
	return cr.lookup(cfg, func() (any, error) {
		if via != nil {
			return via(compute)
		}
		return compute(ctx)
	})
}

// lookup serves cfg from the cache, running miss on a cache miss; miss
// returns a *cachedRun. Every caller — hit, coalesced or leader —
// decodes its own Report from the entry.
func (cr *CachedRunner) lookup(cfg RunConfig, miss func() (any, error)) (*Report, map[string]float64, error) {
	v, err := cr.cache.Do(cfg.cacheKey(), func() (any, int64, error) {
		v, err := miss()
		if err != nil {
			return nil, 0, err
		}
		return v, int64(len(v.(*cachedRun).report)), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return v.(*cachedRun).open()
}

// Stats snapshots the cache counters (hits, misses, executions,
// coalesced requests, evictions, resident bytes).
func (cr *CachedRunner) Stats() resultcache.Stats { return cr.cache.Stats() }

// cacheKey canonicalizes the config: defaults are resolved first so
// that, e.g., an empty Device and an explicit "2080ti" share one cache
// entry, and the seed is ignored unless eager mode actually uses it.
func (cfg RunConfig) cacheKey() string {
	return resultcache.Key(cfg.canonicalFields(true))
}

// Fingerprint canonicalizes the config's workload identity — the cache
// key minus the seed — so failure tracking (the serve layer's panic
// quarantine) groups every run of one workload configuration together
// regardless of which data seed happened to trigger the fault.
func (cfg RunConfig) Fingerprint() string {
	return resultcache.Key(cfg.canonicalFields(false))
}

// BatchFingerprint canonicalizes the config's *batchable* identity: the
// fingerprint minus batch size (and seed). Two eager configs with equal
// batch fingerprints may execute as one merged cross-request forward —
// everything that shapes the computation graph or its numerics
// (workload, variant, device, scale flavour, precision policy) matches;
// only the data (seed) and the sample count differ, which is exactly
// what RunMergedProfiled concatenates over.
func (cfg RunConfig) BatchFingerprint() string {
	m := cfg.canonicalFields(false)
	delete(m, "batch")
	return resultcache.Key(m)
}

func (cfg RunConfig) canonicalFields(includeSeed bool) map[string]string {
	norm := cfg
	if norm.Device == "" {
		norm.Device = "2080ti"
	}
	if norm.BatchSize <= 0 {
		norm.BatchSize = 32
	}
	if norm.Variant == "" {
		if info, err := workloads.Get(norm.Workload); err == nil {
			norm.Variant = info.Fusions[0]
		}
	}
	if !norm.Eager {
		norm.Seed = 0
	} else if norm.Seed == 0 {
		norm.Seed = 1 // core.RunOptions defaults the eager seed to 1
	}
	m := map[string]string{
		"workload": norm.Workload,
		"variant":  norm.Variant,
		"device":   norm.Device,
		"batch":    strconv.Itoa(norm.BatchSize),
		"paper":    strconv.FormatBool(norm.PaperScale),
		"eager":    strconv.FormatBool(norm.Eager),
	}
	if includeSeed {
		m["seed"] = strconv.FormatInt(norm.Seed, 10)
	}
	// Precision changes results (numerics in eager mode, modeled kernel
	// costs in analytic mode), so non-trivial policies key the cache by
	// their canonical form. All spellings of all-f32 — empty, "f32", or
	// explicit f32 assignments — share the pre-mixed-precision key.
	if pol, err := precision.ParsePolicy(norm.Precision); err == nil && !pol.AllF32() {
		m["precision"] = pol.String()
	} else if err != nil {
		// Unparseable policies never execute (Run rejects them); give
		// them a unique key so the error is not cached under f32.
		m["precision"] = "invalid:" + norm.Precision
	}
	return m
}

// defaultRunner backs the package-level cached entry point.
var defaultRunner = NewCachedRunner(64 << 20)

// RunCached profiles through a shared process-wide cache: repeated or
// concurrent identical configs cost one execution. Each call returns
// its own Report.
func RunCached(cfg RunConfig) (*Report, error) { return defaultRunner.Run(cfg) }

// RunCacheStats snapshots the shared cache's counters.
func RunCacheStats() resultcache.Stats { return defaultRunner.Stats() }
