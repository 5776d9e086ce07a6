package workloads

import (
	"strconv"

	"mmbench/internal/mmnet"
	"mmbench/internal/resultcache"
)

// WeightSeed is the weight seed of every network the inference paths
// run: Shared builds with it, and training builds its own copy with it.
const WeightSeed = 42

// sharedBudget bounds the parameter bytes the network cache keeps
// resident. The largest paper-scale network (mmimdb) has about 59 MiB
// of parameters, so it fits alone; smaller networks share the budget
// LRU-first.
const sharedBudget = 64 << 20

// shared is the process-wide network cache behind Shared.
var shared = resultcache.New(sharedBudget)

// Shared returns the network Build(name, variant, paperScale,
// WeightSeed) gives, built at most once per process while it stays in
// the cache: equal keys return the same pointer, and concurrent first
// calls share one build. A build error is returned to its caller and
// never cached.
//
// The network is shared by every caller, so it is read-only: inference
// (eager forwards, plan compilation, placement) only reads weights and
// the data generator. Anything that writes the network — training in
// particular — must call Build for a private copy.
func Shared(name, variant string, paperScale bool) (*mmnet.Network, error) {
	key := resultcache.Key(map[string]string{
		"workload": name,
		"variant":  variant,
		"paper":    strconv.FormatBool(paperScale),
	})
	v, err := shared.Do(key, func() (any, int64, error) {
		n, err := Build(name, variant, paperScale, WeightSeed)
		if err != nil {
			return nil, 0, err
		}
		// The charge is the parameter footprint; the data generator's
		// class prototypes ride along uncharged.
		return n, n.ParamBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mmnet.Network), nil
}

// SharedStats snapshots the network cache's counters: hits, misses,
// builds (Executions), evictions and resident parameter bytes.
func SharedStats() resultcache.Stats { return shared.Stats() }
