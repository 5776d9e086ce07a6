package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestRunResponseIncludesStageLatency(t *testing.T) {
	_, ts := newTestServer(t)
	var body struct {
		Report       map[string]any     `json:"report"`
		StageLatency map[string]float64 `json:"stage_latency_ms"`
	}
	resp := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"avmnist","eager":true,"batch":2}`, &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, stage := range []string{"encoder", "fusion", "head"} {
		if body.StageLatency[stage] <= 0 {
			t.Errorf("stage_latency_ms[%q] = %v, want > 0", stage, body.StageLatency[stage])
		}
	}

	// Analytic runs have no measured numerics: no stage_latency_ms key.
	var analytic map[string]any
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist"}`, &analytic)
	if _, ok := analytic["stage_latency_ms"]; ok {
		t.Error("analytic response has stage_latency_ms")
	}
}

func TestStatsStageLatencyAndQueue(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2}`, nil)

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.StageLatency["encoder"].Samples == 0 {
		t.Errorf("stats stage_latency_ms missing encoder samples: %+v", st.StageLatency)
	}
	enc := st.StageLatency["encoder"]
	if enc.P50 > enc.P99 {
		t.Errorf("encoder p50 %v > p99 %v", enc.P50, enc.P99)
	}
	if st.Queue.Depth < 0 {
		t.Errorf("queue depth %d", st.Queue.Depth)
	}
	// The service latency block keeps its shape and stays ordered.
	if st.Latency.Samples < 1 || st.Latency.P50 > st.Latency.P99 {
		t.Errorf("latency block inconsistent: %+v", st.Latency)
	}
}

// An eager run's GEMMs ride the packed micro-kernel (the model's conv
// and linear shapes sit above the pack crossover), so the stats must
// report panel traffic and the selected kernel implementation.
func TestStatsReportsPackActivity(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2}`, nil)

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Engine.Pack.Kernel == "" {
		t.Error("engine.pack.kernel is empty")
	}
	if st.Engine.Pack.PanelCheckouts <= 0 || st.Engine.Pack.PanelBytes <= 0 {
		t.Errorf("no pack-panel traffic after an eager run: %+v", st.Engine.Pack)
	}
	if hr := st.Engine.Pack.HitRate; hr < 0 || hr > 1 {
		t.Errorf("pack hit rate %v outside [0,1]", hr)
	}
}

func TestQueueWaitAppearsAfterSweep(t *testing.T) {
	_, ts := newTestServer(t)
	var sweep struct {
		JobID string `json:"job_id"`
	}
	postJSON(t, ts.URL+"/v1/sweep",
		`{"workload":"avmnist","devices":["2080ti"],"batches":[1,2]}`, &sweep)
	waitForJob(t, ts.URL, sweep.JobID)

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Queue.WaitMs.Samples == 0 {
		t.Errorf("no queue-wait samples after a sweep: %+v", st.Queue)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	// Generate traffic first: an eager run (stage histograms) and a
	// sweep (jobs, queue wait).
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2}`, nil)
	var sweep struct {
		JobID string `json:"job_id"`
	}
	postJSON(t, ts.URL+"/v1/sweep",
		`{"workload":"avmnist","devices":["2080ti"],"batches":[1]}`, &sweep)
	waitForJob(t, ts.URL, sweep.JobID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Every counter family the service tracks must be exposed.
	families := []string{
		"mmbench_requests_total",
		"mmbench_encode_errors_total",
		"mmbench_cache_hits_total",
		"mmbench_cache_misses_total",
		"mmbench_jobs{state=\"done\"}",
		"mmbench_queue_depth",
		"mmbench_engine_tasks_total",
		"mmbench_engine_pool_hits_total",
		"mmbench_engine_pack_checkouts_total",
		"mmbench_engine_pack_bytes_total",
		"mmbench_engine_pack_pool_hits_total",
		"mmbench_attention_fused_calls_total",
		"mmbench_branches_parallel_forwards_total",
		"mmbench_precision_f16_kernels_total",
		"mmbench_service_latency_seconds_bucket",
		"mmbench_service_latency_seconds_count",
		"mmbench_queue_wait_seconds_bucket",
		"mmbench_stage_latency_seconds_bucket{stage=\"encoder\"",
	}
	for _, f := range families {
		if !strings.Contains(text, f) {
			t.Errorf("/metrics missing %s", f)
		}
	}

	// Structural validity: every sample line parses as name{labels} value,
	// and HELP/TYPE precede their family's samples.
	typed := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: bad TYPE line %q", ln+1, line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: sample %q not `name value`", ln+1, line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
			}
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Errorf("line %d: sample %q has no preceding TYPE", ln+1, line)
		}
	}

	// Histogram consistency: the service-latency +Inf bucket equals its
	// count series.
	var inf, count string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `mmbench_service_latency_seconds_bucket{le="+Inf"}`) {
			inf = strings.Fields(line)[1]
		}
		if strings.HasPrefix(line, "mmbench_service_latency_seconds_count") {
			count = strings.Fields(line)[1]
		}
	}
	if inf == "" || inf != count {
		t.Errorf("+Inf bucket %q != count %q", inf, count)
	}
}

func TestPprofGatedByOption(t *testing.T) {
	_, tsOff := newTestServer(t)
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without the option")
	}

	s := New(Options{Workers: 1, Pprof: true})
	tsOn := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		tsOn.Close()
		s.Close(context.Background())
	})
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

// metricValues parses the unlabelled samples of a /metrics body.
func metricValues(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(line, "#") || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		vals[fields[0]] = v
	}
	return vals
}

// The networks block of /v1/stats and the mmbench_network_cache_*
// families of /metrics report the same counters.
func TestNetworkCacheStatsMatchMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	// Two distinct eager configs of one workload: the second reuses the
	// network the first built.
	for _, seed := range []int{1, 2} {
		resp := postJSON(t, ts.URL+"/v1/run",
			`{"workload":"avmnist","batch":2,"eager":true,"seed":`+strconv.Itoa(seed)+`}`, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run status %d", resp.StatusCode)
		}
	}
	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	metrics := metricValues(t, ts.URL+"/metrics")

	nw := stats.Networks
	if nw.Executions < 1 || nw.Hits < 1 || nw.Bytes <= 0 || nw.Entries < 1 {
		t.Fatalf("networks block shows no shared-network use after two runs: %+v", nw)
	}
	for name, want := range map[string]float64{
		"mmbench_network_cache_hits_total":       float64(nw.Hits),
		"mmbench_network_cache_misses_total":     float64(nw.Misses),
		"mmbench_network_cache_executions_total": float64(nw.Executions),
		"mmbench_network_cache_coalesced_total":  float64(nw.Coalesced),
		"mmbench_network_cache_evictions_total":  float64(nw.Evictions),
		"mmbench_network_cache_resident_bytes":   float64(nw.Bytes),
	} {
		got, ok := metrics[name]
		if !ok {
			t.Errorf("/metrics missing %s", name)
		} else if got != want {
			t.Errorf("%s = %v in /metrics, %v in /v1/stats", name, got, want)
		}
	}
}
