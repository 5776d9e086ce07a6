package mmbench

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestCacheKeyCanonicalization(t *testing.T) {
	cases := []struct {
		name string
		a, b RunConfig
		same bool
	}{
		{
			name: "defaults resolve to explicit values",
			a:    RunConfig{Workload: "avmnist"},
			b:    RunConfig{Workload: "avmnist", Variant: "concat", Device: "2080ti", BatchSize: 32},
			same: true,
		},
		{
			name: "seed ignored in analytic mode",
			a:    RunConfig{Workload: "avmnist", Seed: 7},
			b:    RunConfig{Workload: "avmnist", Seed: 99},
			same: true,
		},
		{
			name: "eager default seed equals explicit 1",
			a:    RunConfig{Workload: "avmnist", Eager: true},
			b:    RunConfig{Workload: "avmnist", Eager: true, Seed: 1},
			same: true,
		},
		{
			name: "eager seed matters",
			a:    RunConfig{Workload: "avmnist", Eager: true, Seed: 1},
			b:    RunConfig{Workload: "avmnist", Eager: true, Seed: 2},
			same: false,
		},
		{
			name: "batch matters",
			a:    RunConfig{Workload: "avmnist", BatchSize: 32},
			b:    RunConfig{Workload: "avmnist", BatchSize: 64},
			same: false,
		},
		{
			name: "device matters",
			a:    RunConfig{Workload: "avmnist", Device: "nano"},
			b:    RunConfig{Workload: "avmnist", Device: "orin"},
			same: false,
		},
		{
			name: "paper scale matters",
			a:    RunConfig{Workload: "avmnist", PaperScale: true},
			b:    RunConfig{Workload: "avmnist"},
			same: false,
		},
		{
			name: "variant matters",
			a:    RunConfig{Workload: "avmnist", Variant: "sum"},
			b:    RunConfig{Workload: "avmnist", Variant: "tensor"},
			same: false,
		},
		{
			name: "all-f32 precision spellings share the legacy key",
			a:    RunConfig{Workload: "avmnist"},
			b:    RunConfig{Workload: "avmnist", Precision: "head=f32,fusion=f32"},
			same: true,
		},
		{
			name: "explicit f32 equals empty precision",
			a:    RunConfig{Workload: "avmnist", Precision: "f32"},
			b:    RunConfig{Workload: "avmnist"},
			same: true,
		},
		{
			name: "precision matters",
			a:    RunConfig{Workload: "avmnist", Precision: "head=i8"},
			b:    RunConfig{Workload: "avmnist"},
			same: false,
		},
		{
			name: "equivalent policies canonicalize to one key",
			a:    RunConfig{Workload: "avmnist", Precision: "head=i8,fusion=f16"},
			b:    RunConfig{Workload: "avmnist", Precision: "fusion=f16, head=i8"},
			same: true,
		},
		{
			name: "different policies get different keys",
			a:    RunConfig{Workload: "avmnist", Precision: "head=i8"},
			b:    RunConfig{Workload: "avmnist", Precision: "head=f16"},
			same: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := tc.a.cacheKey(), tc.b.cacheKey()
			if (ka == kb) != tc.same {
				t.Fatalf("cacheKey(%+v) = %q vs cacheKey(%+v) = %q; want same=%v",
					tc.a, ka, tc.b, kb, tc.same)
			}
		})
	}
}

func TestCachedRunnerDedupes(t *testing.T) {
	cr := NewCachedRunner(16 << 20)
	cfg := RunConfig{Workload: "avmnist", PaperScale: true, BatchSize: 8}

	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 32
	var wg sync.WaitGroup
	reports := make([]*Report, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mix equivalent spellings of the same config.
			c := cfg
			if i%2 == 0 {
				c.Variant = "concat"
				c.Device = "2080ti"
			}
			rep, err := cr.Run(c)
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = rep
		}(i)
	}
	wg.Wait()

	s := cr.Stats()
	if s.Executions != 1 {
		t.Fatalf("%d executions for %d equivalent requests, want 1 (stats %+v)", s.Executions, callers, s)
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("caller %d got nil report", i)
		}
		if rep.LatencySeconds != want.LatencySeconds || rep.Kernels != want.Kernels {
			t.Fatalf("cached report diverges from direct Run: %+v vs %+v", rep, want)
		}
	}
}

func TestCachedRunnerErrorsPropagate(t *testing.T) {
	cr := NewCachedRunner(1 << 20)
	if _, err := cr.Run(RunConfig{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	s := cr.Stats()
	if s.Entries != 0 {
		t.Fatalf("error cached: %+v", s)
	}
}

// Cache entries are the report's canonical JSON: the budget charges
// exactly its length, every return decodes a Report (and stage map) the
// caller owns, and the decoded report equals a direct Run's.
func TestCachedRunnerReturnsPrivateReports(t *testing.T) {
	for _, cfg := range []RunConfig{
		{Workload: "avmnist", PaperScale: true, BatchSize: 8},
		{Workload: "avmnist", PaperScale: true, BatchSize: 2, Eager: true, Seed: 4, Precision: "i8"},
	} {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		cr := NewCachedRunner(16 << 20)
		a, stageA, err := cr.RunProfiled(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s := cr.Stats(); s.Bytes != int64(len(wantJSON)) {
			t.Fatalf("entry charged %d bytes, want the report's %d JSON bytes", s.Bytes, len(wantJSON))
		}
		a.ModalitySeconds["poisoned"] = 1
		a.Stages[0].Seconds = -1
		for stage := range stageA {
			stageA[stage] = -1
		}
		b, stageB, err := cr.RunProfiled(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s := cr.Stats(); s.Executions != 1 || s.Hits != 1 {
			t.Fatalf("stats %+v, want one execution then one hit", s)
		}
		if a == b {
			t.Fatal("two calls share one Report")
		}
		if !reflect.DeepEqual(b, want) {
			t.Fatalf("cached report differs from direct Run:\n got %+v\nwant %+v", b, want)
		}
		for stage, ms := range stageB {
			if ms < 0 {
				t.Fatalf("stage %s: a caller's write reached the cache entry", stage)
			}
		}
		if cfg.Eager != (len(stageB) > 0) {
			t.Fatalf("eager=%v run returned stage map %v", cfg.Eager, stageB)
		}
	}
}
