//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step) together with each end-to-end metric's direction and bound.

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics, reported by the timed run of every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("plan_p50_ms", "ms"),
    ("plan_p90_ms", "ms"),
    ("plans_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run of every workload. A
/// metric whose layer the workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("obs.http_overhead_p50_ms", "ms"),
    ("obs.http_overhead_p99_ms", "ms"),
    ("obs.connect_p50_us", "us"),
    ("obs.refused_429", "count"),
    ("obs.rtt_2clients_p50_ms", "ms"),
    ("obs.scrape_metrics_p50_ms", "ms"),
    ("obs.bytes_per_plan", "bytes"),
    ("engine.worker_latency_p50_ms", "ms"),
    ("engine.submit_overhead_p50_us", "us"),
    ("engine.fingerprint_us", "us"),
    ("engine.cache_lookup_ns", "ns"),
    ("engine.cache_insert_ns", "ns"),
    ("engine.plan_cache_hit_rate", "ratio"),
    ("engine.basis_cache_hit_rate", "ratio"),
    ("engine.ladder_p50_ms", "ms"),
    ("engine.service_overhead_p50_ms", "ms"),
    ("engine.rung_share.full", "ratio"),
    ("engine.rung_share.deterministic", "ratio"),
    ("engine.rung_share.dynamic_program", "ratio"),
    ("engine.rung_share.on_demand_only", "ratio"),
    ("engine.degraded", "count"),
    ("engine.deadline_misses", "count"),
    ("engine.queue_high_water", "count"),
    ("engine.busy_rejections", "count"),
    ("engine.concurrency_speedup", "ratio"),
    ("audit.audit_p50_ms", "ms"),
    ("audit.tightenings_per_instance", "count"),
    ("audit.nodes_ratio", "ratio"),
    ("core.build_p50_ms", "ms"),
    ("core.model_rows", "count"),
    ("core.model_cols", "count"),
    ("core.model_integers", "count"),
    ("core.ww_p50_us", "us"),
    ("core.tree_build_p50_ms", "ms"),
    ("core.tree_nodes", "count"),
    ("milp.solve_p50_ms", "ms"),
    ("milp.solve_p90_ms", "ms"),
    ("milp.nodes_per_plan", "count"),
    ("milp.nodes_max", "count"),
    ("milp.nodes_per_s", "1/s"),
    ("milp.lp_solves_per_node", "ratio"),
    ("milp.lp_iters_per_node", "ratio"),
    ("milp.warm_hit_rate", "ratio"),
    ("milp.bb_self_p50_ms", "ms"),
    ("milp.proven_optimal_share", "ratio"),
    ("lp.to_standard_p50_us", "us"),
    ("lp.root_p50_ms", "ms"),
    ("lp.root_iters", "count"),
    ("lp.us_per_iter", "us"),
    ("lp.warm_resolve_p50_us", "us"),
    ("lp.warm_resolve_iters", "count"),
    ("lp.warm_path_share", "ratio"),
    ("telemetry.all_on_ratio", "ratio"),
    ("telemetry.counters_ratio", "ratio"),
    ("harness.trace_overhead_ratio", "ratio"),
    ("harness.unattributed_share", "ratio"),
    ("harness.plan_p50_ms", "ms"),
    ("harness.plan_p99_ms", "ms"),
    ("harness.cpu_ms_per_plan", "ms"),
    ("harness.traced_plans", "count"),
    ("harness.walked_plans", "count"),
    ("harness.answer_mismatches", "count"),
];

/// A metric list under construction; `set` refuses names the catalogue
/// does not have, `finish` fills the ones never set with 0.
pub struct MetricSet {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Self { catalogue, values: vec![None; catalogue.len()] }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let idx = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[idx] = Some(if value.is_finite() { value } else { 0.0 });
    }

    pub fn finish(self) -> Vec<Metric> {
        self.catalogue
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), v)| Metric { name, unit, value: v.unwrap_or(0.0) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        json.get(list)
            .and_then(|l| l.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |k| m.get(k).and_then(|v| v.as_str()).expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn unset_metrics_read_zero_and_unknown_names_panic() {
        let mut set = MetricSet::new(&END_TO_END);
        set.set("setup_s", 1.5);
        set.set("plans_per_s", f64::NAN);
        let out = set.finish();
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!(out.iter().find(|m| m.name == "setup_s").unwrap().value, 1.5);
        assert!(out.iter().filter(|m| m.name != "setup_s").all(|m| m.value == 0.0));
        let caught = std::panic::catch_unwind(|| MetricSet::new(&END_TO_END).set("nope", 1.0));
        assert!(caught.is_err());
    }
}
