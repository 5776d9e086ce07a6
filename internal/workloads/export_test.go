package workloads

import "mmbench/internal/resultcache"

// ResetShared empties the network cache and its counters, so a test
// can start from a cold cache.
func ResetShared() { shared = resultcache.New(sharedBudget) }
