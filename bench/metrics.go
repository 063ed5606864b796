package main

// metricDef names one metric the benchmark emits. BENCHMARK.json lists the
// same names, units and directions; the package test holds the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // a count the program makes, identical on every run of a seed
}

// endToEnd is what a user of the system sees, measured with tracing off.
// All are host time or host memory; simulated statistics are checked for
// equality, never reported as speed.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "compile_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sim_khz", unit: "kHz", better: "higher", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "sweep_khz", unit: "kHz", better: "higher", bound: 0.25},
	{name: "job_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "job_p95_ms", unit: "ms", better: "lower", bound: 0.25},
}

// perLayer is one module each, prefix = module name, from a traced run.
var perLayer = []metricDef{
	{name: "firrtl.parse_ms", unit: "ms", better: "lower"},
	{name: "firrtl.elaborate_ms", unit: "ms", better: "lower"},
	{name: "firrtl.src_kb", unit: "KB", better: "lower", exact: true},
	{name: "firrtl.nodes", unit: "count", better: "lower", exact: true},
	{name: "circuit.hash_ms", unit: "ms", better: "lower"},
	{name: "circuit.schedgraph_ms", unit: "ms", better: "lower"},
	{name: "partition.baseline_ms", unit: "ms", better: "lower"},
	{name: "partition.parts", unit: "count", better: "lower", exact: true},
	{name: "dedup.deduplicate_ms", unit: "ms", better: "lower"},
	{name: "dedup.vs_baseline_ratio", unit: "ratio", better: "lower"},
	{name: "dedup.shared_classes", unit: "count", better: "higher", exact: true},
	{name: "dedup.node_reduction_pct", unit: "%", better: "higher", exact: true},
	{name: "dedup.dissolved_parts", unit: "count", better: "lower", exact: true},
	{name: "sched.locality_ms", unit: "ms", better: "lower"},
	{name: "sched.baseline_ms", unit: "ms", better: "lower"},
	{name: "sched.reuse_mean_distance", unit: "slots", better: "lower", exact: true},
	{name: "sched.back_to_back_frac", unit: "ratio", better: "higher", exact: true},
	{name: "codegen.compile_ms", unit: "ms", better: "lower"},
	{name: "codegen.kernels", unit: "count", better: "lower", exact: true},
	{name: "codegen.code_bytes", unit: "B", better: "lower", exact: true},
	{name: "codegen.table_bytes", unit: "B", better: "lower", exact: true},
	{name: "codegen.static_instrs", unit: "count", better: "lower", exact: true},
	{name: "codegen.fusion_frac", unit: "ratio", better: "higher", exact: true},
	{name: "sim.acts_per_cycle", unit: "1/cycle", better: "lower", exact: true},
	{name: "sim.interp_instrs_per_cycle", unit: "1/cycle", better: "lower", exact: true},
	{name: "sim.dyn_instrs_per_cycle", unit: "1/cycle", better: "lower", exact: true},
	{name: "sim.activity_pct", unit: "%", better: "lower", exact: true},
	{name: "sim.ns_per_act", unit: "ns", better: "lower"},
	{name: "sim.ns_per_interp_instr", unit: "ns", better: "lower"},
	{name: "sim.essent_khz", unit: "kHz", better: "higher"},
	{name: "sim.dedup_vs_essent", unit: "ratio", better: "higher"},
	{name: "sim.dedup_tax_pct", unit: "%", better: "lower", exact: true},
	{name: "sim.parallel2_khz", unit: "kHz", better: "higher"},
	{name: "sim.ref_khz", unit: "kHz", better: "higher"},
	{name: "sim.batch_l1_khz", unit: "kHz", better: "higher"},
	{name: "sim.batch_vs_scalar", unit: "ratio", better: "higher"},
	{name: "sim.engine_new_ms", unit: "ms", better: "lower"},
	{name: "sim.snapshot_save_us", unit: "us", better: "lower"},
	{name: "sim.snapshot_encode_us", unit: "us", better: "lower"},
	{name: "sim.snapshot_decode_us", unit: "us", better: "lower"},
	{name: "sim.snapshot_bytes", unit: "B", better: "lower", exact: true},
	{name: "stimulus.drive_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "perfmodel.record_ms", unit: "ms", better: "lower"},
	{name: "perfmodel.modeled_dedup_vs_essent", unit: "ratio", better: "higher"},
	{name: "perfmodel.l1i_mpki_essent", unit: "1/kinstr", better: "lower", exact: true},
	{name: "perfmodel.l1i_mpki_dedup", unit: "1/kinstr", better: "lower", exact: true},
	{name: "farm.submit_us", unit: "us", better: "lower"},
	{name: "farm.spec_build_ms", unit: "ms", better: "lower"},
	{name: "farm.queue_wait_mean_ms", unit: "ms", better: "lower"},
	{name: "farm.lane_wait_mean_ms", unit: "ms", better: "lower"},
	{name: "farm.compile_mean_ms", unit: "ms", better: "lower"},
	{name: "farm.sim_run_mean_ms", unit: "ms", better: "lower"},
	{name: "farm.ckpt_write_mean_ms", unit: "ms", better: "lower"},
	{name: "farm.cache_hit_frac", unit: "ratio", better: "higher"},
	{name: "farm.compiles", unit: "count", better: "lower", exact: true},
	{name: "farm.lanes_mean", unit: "lanes", better: "higher"},
	{name: "farm.ckpts_taken", unit: "count", better: "lower"},
	{name: "farm.worker_util", unit: "ratio", better: "higher"},
	{name: "farm.aggregate_sim_hz", unit: "Hz", better: "higher"},
	{name: "farm.recovery_ms", unit: "ms", better: "lower"},
	{name: "farm.artifact_encode_ms", unit: "ms", better: "lower"},
	{name: "farm.artifact_decode_ms", unit: "ms", better: "lower"},
	{name: "farm.artifact_kb", unit: "KB", better: "lower", exact: true},
	{name: "durable.append_us.none", unit: "us", better: "lower"},
	{name: "durable.append_us.interval", unit: "us", better: "lower"},
	{name: "durable.append_us.always", unit: "us", better: "lower"},
	{name: "durable.replay_ms_per_krec", unit: "ms", better: "lower"},
	{name: "durable.ckpt_save_ms", unit: "ms", better: "lower"},
	{name: "tenant.pick_ns", unit: "ns", better: "lower"},
	{name: "tenant.share_err_pct", unit: "%", better: "lower"},
	{name: "obs.hist_observe_ns", unit: "ns", better: "lower"},
	{name: "obs.prom_render_ms", unit: "ms", better: "lower"},
	{name: "obs.stats_render_ms", unit: "ms", better: "lower"},
	{name: "cluster.submit_p50_ms", unit: "ms", better: "lower"},
	{name: "cluster.forward_mean_ms", unit: "ms", better: "lower"},
	{name: "cluster.spilled_frac", unit: "ratio", better: "lower"},
	{name: "cluster.compiles_fleetwide", unit: "count", better: "lower"},
	{name: "cluster.artifacts_pulled", unit: "count", better: "lower"},
	{name: "cluster.overhead_pct", unit: "%", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.span_coverage_pct", unit: "%", better: "higher"},
	{name: "bench.trial_iqr_pct", unit: "%", better: "lower"},
	{name: "failed_frac", unit: "ratio", better: "lower", exact: true},
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}
