package workloads_test

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"mmbench"
	"mmbench/internal/core"
	"mmbench/internal/mmnet"
	"mmbench/internal/precision"
	"mmbench/internal/workloads"
)

func TestSharedEqualKeysSamePointer(t *testing.T) {
	workloads.ResetShared()
	a, err := workloads.Shared("avmnist", "concat", true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.Shared("avmnist", "concat", true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("equal keys returned different networks")
	}
	for _, other := range []struct {
		variant string
		paper   bool
	}{{"concat", false}, {"uni:image", true}} {
		c, err := workloads.Shared("avmnist", other.variant, other.paper)
		if err != nil {
			t.Fatal(err)
		}
		if c == a {
			t.Fatalf("avmnist/%s paper=%v shares avmnist/concat paper=true's network", other.variant, other.paper)
		}
	}
	s := workloads.SharedStats()
	if s.Executions != 3 || s.Hits != 1 || s.Entries != 3 {
		t.Fatalf("stats %+v, want 3 builds, 1 hit, 3 entries", s)
	}
}

func TestSharedColdKeyBuildsOnce(t *testing.T) {
	workloads.ResetShared()
	const callers = 16
	nets := make([]*mmnet.Network, callers)
	var wg sync.WaitGroup
	for i := range nets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := workloads.Shared("mosei", "concat", true)
			if err != nil {
				t.Error(err)
				return
			}
			nets[i] = n
		}(i)
	}
	wg.Wait()
	for i, n := range nets {
		if n == nil || n != nets[0] {
			t.Fatalf("caller %d got network %p, caller 0 got %p", i, n, nets[0])
		}
	}
	s := workloads.SharedStats()
	if s.Executions != 1 {
		t.Fatalf("%d builds for %d concurrent cold calls, want 1 (stats %+v)", s.Executions, callers, s)
	}
	if s.Hits+s.Misses != callers {
		t.Fatalf("%d lookups counted for %d calls (stats %+v)", s.Hits+s.Misses, callers, s)
	}
	if s.Bytes != nets[0].ParamBytes() {
		t.Fatalf("resident %d bytes, want the network's %d parameter bytes", s.Bytes, nets[0].ParamBytes())
	}
}

func TestSharedBuildErrorNotCached(t *testing.T) {
	workloads.ResetShared()
	for i := 0; i < 2; i++ {
		if _, err := workloads.Shared("avmnist", "bogus", true); err == nil {
			t.Fatal("unsupported fusion accepted")
		}
	}
	s := workloads.SharedStats()
	if s.Entries != 0 || s.Executions != 2 {
		t.Fatalf("stats %+v, want no entries and one build per failing call", s)
	}
}

// runRecord is everything a profiled run produces that a report is
// rendered from, in a form whose JSON encoding is exact.
type runRecord struct {
	Kernels, Hosts, Transfers any
	Wall, Latency             float64
	Memory                    any
	ErrMax, ErrMean           float64
	Output                    []float32
}

func record(t *testing.T, n *mmnet.Network, opts core.RunOptions) []byte {
	t.Helper()
	res, err := core.Run(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := runRecord{
		Kernels: res.Trace.Kernels, Hosts: res.Trace.Hosts, Transfers: res.Trace.Transfers,
		Wall: res.Trace.Wall, Latency: res.Latency, Memory: res.Memory,
		ErrMax: res.OutputErrMax, ErrMean: res.OutputErrMean,
	}
	if opts.Eager {
		r.Output = res.Output.Value.Data()
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Runs on the shared network are byte-identical to the same runs on a
// freshly built network.
func TestSharedRunsMatchFreshBuild(t *testing.T) {
	i8, err := precision.ParsePolicy("i8")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts core.RunOptions
	}{
		{"eager f32", core.RunOptions{BatchSize: 2, Eager: true, Seed: 3}},
		{"eager i8", core.RunOptions{BatchSize: 2, Eager: true, Seed: 3, Precision: i8}},
		{"analytic", core.RunOptions{BatchSize: 32}},
	}
	for _, w := range []string{"avmnist", "mosei"} {
		shared, err := workloads.Shared(w, "concat", true)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := workloads.Build(w, "concat", true, workloads.WeightSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			got, want := record(t, shared, c.opts), record(t, fresh, c.opts)
			if string(got) != string(want) {
				t.Errorf("%s %s: shared-network run differs from a fresh build", w, c.name)
			}
		}
	}
}

// paramBits copies every parameter's bit pattern.
func paramBits(n *mmnet.Network) [][]uint32 {
	var out [][]uint32
	for _, p := range n.Params() {
		d := p.Value.Data()
		bits := make([]uint32, len(d))
		for i, v := range d {
			bits[i] = math.Float32bits(v)
		}
		out = append(out, bits)
	}
	return out
}

// Inference never writes a shared network: its parameters are
// bit-for-bit unchanged by an eager i8 run, a merged three-member run
// and an analytic run.
func TestSharedNetworkImmutableUnderInference(t *testing.T) {
	i8, err := precision.ParsePolicy("i8")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"avmnist", "mosei"} {
		n, err := workloads.Shared(w, "concat", true)
		if err != nil {
			t.Fatal(err)
		}
		before := paramBits(n)
		if _, err := core.Run(n, core.RunOptions{BatchSize: 2, Eager: true, Precision: i8}); err != nil {
			t.Fatal(err)
		}
		members := []core.MemberSpec{{BatchSize: 1, Seed: 1}, {BatchSize: 2, Seed: 2}, {BatchSize: 1, Seed: 3}}
		if _, err := core.RunMerged(n, core.RunOptions{Eager: true}, members); err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(n, core.RunOptions{BatchSize: 32}); err != nil {
			t.Fatal(err)
		}
		after := paramBits(n)
		for i := range before {
			for j := range before[i] {
				if before[i][j] != after[i][j] {
					t.Fatalf("%s: inference wrote parameter %d element %d", w, i, j)
				}
			}
		}
	}
}

// Concurrent eager forwards on one shared network agree with a
// sequential run (and, under -race, share it without a data race).
func TestSharedConcurrentEagerRuns(t *testing.T) {
	n, err := workloads.Shared("avmnist", "concat", true)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.RunOptions{BatchSize: 2, Eager: true, Seed: 5}
	want := record(t, n, opts)
	const callers = 4
	got := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = record(t, n, opts)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if string(g) != string(want) {
			t.Fatalf("concurrent run %d differs from the sequential run", i)
		}
	}
}

// One 12-cell analytic sweep of one workload builds its network once:
// the first cell builds, the other eleven hit.
func TestSweepBuildsNetworkOnce(t *testing.T) {
	workloads.ResetShared()
	cfg := mmbench.SweepConfig{
		Workload: "mosei",
		Devices:  []string{"2080ti", "nano", "orin", "mobile"},
		Batches:  []int{1, 8, 32},
	}
	if _, err := mmbench.RunSweep(cfg, mmbench.NewCachedRunner(64<<20).Run, nil); err != nil {
		t.Fatal(err)
	}
	if s := workloads.SharedStats(); s.Executions != 1 || s.Hits != 11 {
		t.Fatalf("network cache %+v, want 1 build and 11 hits", s)
	}
}
