package main

// metricDef describes one metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatchesCatalogue keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move, written down before any change is measured against it.
	Moves string
}

// endToEnd is reported by every untraced run, on every workload. The unit
// of work is a CP-ALS sweep on cp-fmri and a request elsewhere.
//
// The failure share is reported as success_ratio (succeeded ÷ attempted)
// rather than failed_ratio, because a gated metric must never read 0; the
// raw counts are the result's "attempted" and "failed" fields.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "success_ratio", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.2},
}

// perLayer is reported by every traced run. A metric of a layer the
// workload does not cross reads 0 there; Moves names the workload that
// exercises it.
var perLayer = []metricDef{
	{Name: "simd.gemm4x4_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "cp-fmri throughput"},
	{Name: "simd.hadexpand_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "cp-fmri throughput"},
	{Name: "blas.gemm_baseline_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "cp-fmri throughput"},
	{Name: "blas.gemm_over_simd", Unit: "ratio", Better: "higher", Moves: "cp-fmri throughput"},
	{Name: "blas.gemm_request_us", Unit: "us", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "krp.full_ms", Unit: "ms", Better: "lower", Moves: "cp-fmri throughput"},
	{Name: "core.mttkrp_m0_ms", Unit: "ms", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "core.mttkrp_m1_ms", Unit: "ms", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "core.mttkrp_m2_ms", Unit: "ms", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "core.mttkrp_m3_ms", Unit: "ms", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "core.phase_gemm_ms", Unit: "ms", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "core.phase_gemv_ms", Unit: "ms", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "core.phase_krp_ms", Unit: "ms", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "core.phase_reduce_ms", Unit: "ms", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "core.mttkrp_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "cp-fmri throughput"},
	{Name: "core.mttkrp_over_gemm", Unit: "ratio", Better: "higher", Moves: "cp-fmri throughput"},
	{Name: "core.speedup_t2", Unit: "ratio", Better: "higher", Moves: "cp-fmri throughput"},
	{Name: "core.gflop_per_sweep", Unit: "GFLOP", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "core.gbytes_per_sweep_computed", Unit: "GB", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "core.request_us", Unit: "us", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "core.sparse_ms", Unit: "ms", Better: "lower", Moves: "serve-mix sparse_p50_ms"},
	{Name: "core.large_ms", Unit: "ms", Better: "lower", Moves: "serve-mix large_p50_ms"},
	{Name: "parallel.region_us", Unit: "us", Better: "lower", Moves: "http-dense and serve-mix latency_p50_ms"},
	{Name: "cpd.self_ms", Unit: "ms", Better: "lower", Moves: "cp-fmri latency_p50_ms"},
	{Name: "cpd.speedup_vs_reference", Unit: "ratio", Better: "higher", Moves: "none (the paper's headline row)"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher", Moves: "serve-mix throughput"},
	{Name: "serve.coalesced_ratio", Unit: "ratio", Better: "higher", Moves: "serve-mix throughput"},
	{Name: "serve.fused_ratio", Unit: "ratio", Better: "higher", Moves: "serve-mix latency_p50_ms"},
	{Name: "serve.plan_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "serve-mix latency_p50_ms"},
	{Name: "serve.reordered_ratio", Unit: "ratio", Better: "lower", Moves: "serve-mix large_p50_ms against latency_p90_ms"},
	{Name: "serve.max_queue_wait_ms", Unit: "ms", Better: "lower", Moves: "serve-mix large_p50_ms against latency_p90_ms"},
	{Name: "serve.peak_queued", Unit: "count", Better: "lower", Moves: "serve-mix large_p50_ms against latency_p90_ms"},
	{Name: "serve.overhead_us", Unit: "us", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "serve.large_p50_ms", Unit: "ms", Better: "lower", Moves: "serve-mix latency_p90_ms (convoy)"},
	{Name: "serve.sparse_p50_ms", Unit: "ms", Better: "lower", Moves: "serve-mix latency_p90_ms (convoy)"},
	{Name: "serve.cp_job_p50_ms", Unit: "ms", Better: "lower", Moves: "serve-mix latency_p90_ms (convoy)"},
	{Name: "transport.decode_ms", Unit: "ms", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "transport.compute_ms", Unit: "ms", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "transport.unattributed_ms", Unit: "ms", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "transport.round_trip_mean_ms", Unit: "ms", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "transport.encode_request_us", Unit: "us", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "transport.decode_request_us", Unit: "us", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "transport.response_us", Unit: "us", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "transport.bytes_in_per_req", Unit: "B", Better: "lower", Moves: "http-dense latency_p50_ms"},
	{Name: "tensor.generate_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "trace.overhead_p50_pct", Unit: "%", Better: "lower", Moves: "none (cost of tracing itself)"},
	{Name: "trace.overhead_throughput_pct", Unit: "%", Better: "lower", Moves: "none (cost of tracing itself)"},
}

// unitOf returns the unit a catalogue metric is reported in.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}
