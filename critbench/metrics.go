package main

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics a run with tracing off reports, each for
// every workload. BENCHMARK.json lists the same names, units and bounds;
// critbench_test.go checks that the two agree.
//
// The primary operation behind ops_per_s and the latency percentiles is
// what the workload exists to measure: a cold simulation job (cold-sim), a
// classify request whose batch items count as kernels (classify), and a
// checkpointed sweep point (reuse; its repeats are reported per layer as
// repeat_latency_*).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"setup_s", "s"},
}

// detail are the workload-specific end-to-end numbers. Every run prints
// the ones that apply to its workload with their sample counts; the traced
// run also emits them all (zero where they do not apply), measured on its
// untraced half.
var detail = []metricDef{
	{"sim_jobs_per_s", "1/s"},
	{"sim_latency_p50_ms", "ms"},
	{"sim_latency_p95_ms", "ms"},
	{"sim_warp_insts_per_s", "1/s"},
	{"classify_kernels_per_s", "1/s"},
	{"classify_latency_p50_ms", "ms"},
	{"classify_latency_p99_ms", "ms"},
	{"repeat_latency_p50_ms", "ms"},
	{"repeat_latency_p95_ms", "ms"},
	{"error_rate", "ratio"},
}

// layers are the per-layer metrics of the traced run, emitted for every
// workload; a layer the workload does not exercise reads zero.
var layers = []metricDef{
	{"trace.overhead", "ratio"},

	{"client.retries", "count"},
	{"client.http_share", "ratio"},

	{"server.classify_ms.p50", "ms"},
	{"server.batch_ms.p50", "ms"},
	{"server.ptx_ms.p50", "ms"},
	{"server.submit_ms.p50", "ms"},
	{"server.poll_ms.p50", "ms"},
	{"server.polls_per_job", "ratio"},

	{"ptx.parse_us.p50", "us"},
	{"dataflow.classify_us.p50", "us"},
	{"dataflow.loads_per_s", "1/s"},
	{"families.build_ms.p50", "ms"},

	{"jobs.queue_ms.p50", "ms"},
	{"jobs.exec_ms.p50", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.respelled_hit_ratio", "ratio"},
	{"jobs.deduped", "count"},
	{"jobs.executions", "count"},
	{"jobs.recovery_ms", "ms"},

	{"journal.syncs_per_submit", "ratio"},
	{"journal.bytes_per_job", "B"},

	{"resultstore.puts", "count"},
	{"resultstore.hits", "count"},
	{"resultstore.bytes_per_result", "B"},

	{"checkpoint.hits", "count"},
	{"checkpoint.misses", "count"},
	{"checkpoint.saves", "count"},
	{"checkpoint.bytes_written", "B"},
	{"checkpoint.skipped_cycle_share", "ratio"},

	{"workloads.setup_ms.p50", "ms"},
	{"workloads.setup_share", "ratio"},

	{"gpu.new_ms.p50", "ms"},
	{"gpu.launch_s.total", "s"},
	{"gpu.host_ns_per_cycle", "ns"},
	{"gpu.host_ns_per_cycle.mem_bound", "ns"},
	{"gpu.host_ns_per_cycle.graph", "ns"},
	{"gpu.host_ns_per_cycle.dense", "ns"},
	{"gpu.host_ns_per_warp_inst", "ns"},
	{"gpu.skip_share", "ratio"},
	{"gpu.cycles", "count"},
	{"gpu.warp_insts", "count"},
	{"gpu.mallocs_per_kcycle", "count"},

	{"emu.host_ns_per_warp_inst", "ns"},

	{"coalesce.requests_per_load.D", "ratio"},
	{"coalesce.requests_per_load.N", "ratio"},
	{"cache.l1_miss_share.D", "ratio"},
	{"cache.l1_miss_share.N", "ratio"},
	{"cache.l1_resfail_share.N", "ratio"},
	{"cache.l2_miss_share.D", "ratio"},
	{"cache.l2_miss_share.N", "ratio"},

	{"host.peak_rss_mb", "MB"},
	{"host.alloc_bytes_per_job", "B"},
	{"host.gc_cpu_share", "ratio"},
}

// perLayer is everything a traced run emits: the layer metrics plus the
// detail metrics of its untraced half.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), layers...), detail...)
}
