package main

// metricSpec is one metric of the benchmark's contract. The tables below
// are the source BENCHMARK.json at the repository root is written from (a
// test keeps the two equal).
type metricSpec struct {
	name, unit string
	// better is the direction of improvement: "higher" or "lower".
	better string
	// bound, for an end-to-end metric, is the share of the parent's median
	// by which it may worsen before a change counts as a regression.
	bound float64
}

// endToEndMetrics are measured with tracing off, on every workload.
//
// The unit of work is a simulated frame on the campaign workloads and one
// demonstration mission trained for one epoch on train; the rate and the
// CPU cost are per unit so that they compare across seeds, whose missions
// differ in length.
var endToEndMetrics = []metricSpec{
	{"work_per_s", "1/s", "higher", 0.15},
	{"cpu_us_per_work", "us", "lower", 0.08},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics are what a traced run prints, in this order. A metric
// that does not apply to a workload (the training split on a campaign, a
// campaign's layers on train) reads 0 there.
var perLayerMetrics = []metricSpec{
	{name: "sim.observe_us", unit: "us", better: "lower"},
	{name: "sim.observe_us_p50", unit: "us", better: "lower"},
	{name: "sim.observe_us_p99", unit: "us", better: "lower"},
	{name: "render.render_us", unit: "us", better: "lower"},
	{name: "sensors.lidar_us", unit: "us", better: "lower"},
	{name: "sim.observe_allocs", unit: "count", better: "lower"},
	{name: "sim.observe_alloc_kb", unit: "KB", better: "lower"},
	{name: "agent.act_us", unit: "us", better: "lower"},
	{name: "agent.act_us_p50", unit: "us", better: "lower"},
	{name: "agent.act_us_p99", unit: "us", better: "lower"},
	{name: "agent.act_allocs", unit: "count", better: "lower"},
	{name: "agent.act_alloc_kb", unit: "KB", better: "lower"},
	{name: "render.quantize_us", unit: "us", better: "lower"},
	{name: "render.quantize_alloc_kb", unit: "KB", better: "lower"},
	{name: "fault.inject_us", unit: "us", better: "lower"},
	{name: "fault.inject_us_p50", unit: "us", better: "lower"},
	{name: "fault.inject_us_p99", unit: "us", better: "lower"},
	{name: "fault.setup_us", unit: "us", better: "lower"},
	{name: "sim.step_us", unit: "us", better: "lower"},
	{name: "sim.step_us_p50", unit: "us", better: "lower"},
	{name: "sim.step_us_p99", unit: "us", better: "lower"},
	{name: "sim.step_allocs", unit: "count", better: "lower"},
	{name: "safety.aeb_us", unit: "us", better: "lower"},
	{name: "sim.new_episode_us", unit: "us", better: "lower"},
	{name: "agent.clone_us", unit: "us", better: "lower"},
	{name: "trace.frames", unit: "count", better: "higher"},
	{name: "campaign.serial_us_per_frame", unit: "us", better: "lower"},
	{name: "campaign.coverage", unit: "ratio", better: "higher"},
	{name: "campaign.residual_us_per_frame", unit: "us", better: "lower"},
	{name: "campaign.parallel_eff", unit: "ratio", better: "higher"},
	{name: "campaign.queue_wait_us", unit: "us", better: "lower"},
	{name: "campaign.dispatch_us", unit: "us", better: "lower"},
	{name: "campaign.open_us", unit: "us", better: "lower"},
	{name: "campaign.result_us", unit: "us", better: "lower"},
	{name: "campaign.sink_us", unit: "us", better: "lower"},
	{name: "transport.bytes_per_frame", unit: "B", better: "lower"},
	{name: "transport.msgs_per_frame", unit: "count", better: "lower"},
	{name: "transport.writev_batch_mean", unit: "count", better: "higher"},
	{name: "transport.buf_hit_ratio", unit: "ratio", better: "higher"},
	{name: "proto.delta_ratio", unit: "ratio", better: "higher"},
	{name: "proto.encoded_bytes_per_frame", unit: "B", better: "lower"},
	{name: "proto.compression", unit: "ratio", better: "higher"},
	{name: "simclient.open_batch_mean", unit: "count", better: "higher"},
	{name: "simclient.sessions_failed", unit: "count", better: "lower"},
	{name: "simserver.sessions_failed", unit: "count", better: "lower"},
	{name: "campaign.retries", unit: "count", better: "lower"},
	{name: "campaign.replacements", unit: "count", better: "lower"},
	{name: "telemetry.overhead_pct", unit: "%", better: "lower"},
	{name: "runtime.alloc_kb_per_frame", unit: "KB", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_pct", unit: "%", better: "lower"},
	{name: "campaign.records_write_ns", unit: "ns", better: "lower"},
	{name: "campaign.records_merge_ns", unit: "ns", better: "lower"},
	{name: "campaign.records_resume_ns", unit: "ns", better: "lower"},
	{name: "campaign.records_bytes_per_record", unit: "B", better: "lower"},
	{name: "agent.collect_us_per_frame", unit: "us", better: "lower"},
	{name: "agent.train_us_per_sample", unit: "us", better: "lower"},
	{name: "agent.train_alloc_kb_per_sample", unit: "KB", better: "lower"},
	{name: "agent.dataset_samples", unit: "count", better: "higher"},
}

// runSeconds is how long one run measures unless -seconds says otherwise;
// the workloads' rounds are sized against it.
const runSeconds = 20

// unitOf is the unit the contract gives a metric; reporting a metric the
// contract does not name is a bug in the benchmark.
func unitOf(name string) string {
	for _, table := range [][]metricSpec{endToEndMetrics, perLayerMetrics} {
		for _, m := range table {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the contract")
}
