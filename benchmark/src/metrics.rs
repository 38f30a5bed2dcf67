//! The metrics the benchmark reports, by name and unit. `BENCHMARK.json`
//! carries the same names with their direction and regression bound; a test
//! keeps the two lists equal.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// A simulated statistic or a count of fixed work: it repeats exactly
    /// for a seed, so two runs of the same code must agree to the last digit.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

/// What a user of the simulator sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    timed("wall_s", "s"),
    timed("cpu_s", "s"),
    timed("node_sim_s_per_s", "1/s"),
    timed("setup_s", "s"),
    timed("peak_rss_mb", "MiB"),
];

/// One layer each, from the traced run and the layer replays.
pub const PER_LAYER: [MetricDef; 49] = [
    timed("manet_sim.compile.us", "us"),
    timed("manet_sim.world.new_ms", "ms"),
    timed("manet_sim.world.reset_ms", "ms"),
    timed("manet_sim.world.warmup_s", "s"),
    timed("manet_sim.world.measure_s", "s"),
    timed("manet_sim.world.slice_ms_p50", "ms"),
    timed("manet_sim.world.slice_ms_p95", "ms"),
    timed("manet_sim.world.report_ms", "ms"),
    timed("manet_sim.output.render_us", "us"),
    timed("manet_sim.world.ns_per_reception", "ns"),
    timed("manet_sim.world.ns_per_node_tick", "ns"),
    timed("manet_sim.runner.overhead_share", "fraction"),
    timed("manet_sim.runner.workers2_speedup", "ratio"),
    timed("manet_sim.shard.speedup", "ratio"),
    timed("manet_sim.shard.cpu_ratio", "ratio"),
    timed("manet_sim.shard.warmup_speedup", "ratio"),
    timed("manet_sim.shard.measure_speedup", "ratio"),
    exact("manet_sim.world.frames_sent", "count"),
    exact("manet_sim.world.frames_received", "count"),
    exact("manet_sim.world.frames_lost_collision", "count"),
    exact("manet_sim.world.messages_sent", "count"),
    exact("manet_sim.world.delivered", "count"),
    exact("manet_sim.shard.windows_widened", "count"),
    exact("manet_sim.shard.batches_fused", "count"),
    exact("manet_sim.shard.repartitions", "count"),
    exact("manet_sim.report.reliability", "fraction"),
    exact("manet_sim.report.bandwidth_kb_per_node", "kB"),
    timed("harness.trace_overhead_share", "fraction"),
    timed("harness.phase_coverage_share", "fraction"),
    timed("simkit.wheel.ns_per_schedule_pop", "ns"),
    timed("simkit.wheel.ns_per_cancel_rearm", "ns"),
    timed("simkit.wake_queue.ns_per_update", "ns"),
    timed("mobility.rw.ns_per_advance", "ns"),
    timed("mobility.city.ns_per_advance", "ns"),
    timed("mobility.ns_per_transition_query", "ns"),
    timed("netsim.grid.ns_per_update", "ns"),
    timed("netsim.grid.ns_per_query", "ns"),
    exact("netsim.grid.candidates_per_query", "count"),
    timed("netsim.medium.ns_per_reception", "ns"),
    timed("netsim.medium.ns_per_reception_storm", "ns"),
    exact("netsim.medium.receivers_per_tx", "count"),
    timed("frugal.protocol.ns_per_heartbeat_rx", "ns"),
    timed("frugal.protocol.ns_per_heartbeat_timer", "ns"),
    timed("frugal.protocol.ns_per_event_rx", "ns"),
    exact("frugal.protocol.actions_per_callback", "count"),
    timed("frugal.flooding.ns_per_event_rx", "ns"),
    timed("frugal.event_table.ns_per_insert", "ns"),
    timed("frugal.neighborhood.ns_per_upsert", "ns"),
    timed("pubsub.ns_per_covers", "ns"),
];

/// Values printed beside the metrics that must also repeat exactly.
pub const EXACT_EXTRAS: [&str; 4] = [
    "failed_share",
    "reliability",
    "bandwidth_kb_per_node",
    "paper_abs_err",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn own(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_the_harness_reports() {
        let doc = benchmark_json();
        assert_eq!(names_and_units(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_lists_the_workloads_the_harness_runs() {
        let doc = benchmark_json();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(listed, WORKLOADS.map(|w| w.name));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
