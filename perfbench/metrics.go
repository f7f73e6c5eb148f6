package main

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: tolerated regression, as a share of the median
}

// endToEnd are the untraced pass's metrics, printed with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"flows_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_flow", "us", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.1},
}

// perLayer are the traced pass's metrics, printed with --trace 1.
var perLayer = []metricDef{
	{name: "sensor.publish_us", unit: "us", better: "lower"},
	{name: "sensor.late_p99_ms", unit: "ms", better: "lower"},
	{name: "sensor.held_frac", unit: "ratio", better: "lower"},
	{name: "wire.client_writes_per_flow", unit: "count", better: "lower"},
	{name: "wire.client_bytes_per_flow", unit: "B", better: "lower"},
	{name: "wire.broker_writes_per_flow", unit: "count", better: "lower"},
	{name: "wire.broker_frames_per_write", unit: "count", better: "higher"},
	{name: "wire.reads_per_flow", unit: "count", better: "lower"},
	{name: "broker.received_per_flow", unit: "count", better: "lower"},
	{name: "broker.delivered_per_flow", unit: "count", better: "lower"},
	{name: "broker.dropped", unit: "count", better: "lower"},
	{name: "broker.route_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "broker.transit_p50_ms", unit: "ms", better: "lower"},
	{name: "mqttclient.lane_depth_max", unit: "count", better: "lower"},
	{name: "mqttclient.lane_drops", unit: "count", better: "lower"},
	{name: "flow.join_p50_ms", unit: "ms", better: "lower"},
	{name: "flow.joins_per_flow", unit: "count", better: "lower"},
	{name: "flow.train_p50_ms", unit: "ms", better: "lower"},
	{name: "flow.decision_p50_ms", unit: "ms", better: "lower"},
	{name: "flow.loss_frac", unit: "ratio", better: "lower"},
	{name: "flow.p50_ms", unit: "ms", better: "lower"},
	{name: "flow.p90_ms", unit: "ms", better: "lower"},
	{name: "flow.p99_ms", unit: "ms", better: "lower"},
	{name: "ml.train_us", unit: "us", better: "lower"},
	{name: "ml.predict_us", unit: "us", better: "lower"},
	{name: "ml.anomaly_us", unit: "us", better: "lower"},
	{name: "core.decode_us", unit: "us", better: "lower"},
	{name: "core.encode_decision_us", unit: "us", better: "lower"},
	{name: "core.mix_rounds", unit: "count", better: "lower"},
	{name: "core.mix_bytes_per_round", unit: "B", better: "lower"},
	{name: "core.decisions_per_flow", unit: "count", better: "lower"},
	{name: "core.train_events_per_flow", unit: "count", better: "lower"},
	{name: "telemetry.spans_dropped", unit: "count", better: "lower"},
	{name: "telemetry.events_dropped", unit: "count", better: "lower"},
	{name: "mgmt.announce_ms", unit: "ms", better: "lower"},
	{name: "mgmt.deploy_ms", unit: "ms", better: "lower"},
	{name: "mgmt.wait_running_ms", unit: "ms", better: "lower"},
	{name: "runtime.alloc_bytes_per_flow", unit: "B", better: "lower"},
	{name: "runtime.gc_cycles_per_kflow", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_p99_ms", unit: "ms", better: "lower"},
	{name: "trace.cpu_ratio", unit: "ratio", better: "lower"},
	{name: "trace.flow_p50_ratio", unit: "ratio", better: "lower"},
	{name: "trace.flows_per_s_ratio", unit: "ratio", better: "higher"},
}
