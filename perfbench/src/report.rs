//! The metric registry and the one-line JSON result every run prints.

/// A metric's name and unit, as `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed by every untraced run, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("sim_cycles_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("sim_latency_p50_cycles", "cycles"),
    m("sim_latency_p99_cycles", "cycles"),
    m("delivered_flits_per_node_cycle", "flit/node/cycle"),
    m("sim_mean_latency_ns", "ns"),
];

/// Printed by every traced run, on every workload; a layer the workload
/// does not reach reports 0. Each group names the end-to-end metric and
/// workload it should move.
pub const PER_LAYER: &[MetricDef] = &[
    // Workload hooks, timed by the wrapper handed to the driver:
    // sim_cycles_per_s on md_halo_4x4x8_telemetry (under 1% of host
    // time on uniform_8x8x8_overload, so it cannot move that one).
    m("traffic.workload.self_s", "s"),
    m("traffic.workload.calls", "count"),
    // The driver's own bookkeeping: sim_cycles_per_s on both uniform
    // workloads.
    m("traffic.sweep.self_s", "s"),
    m("traffic.sweep.packets", "count"),
    // Injection and delivery collection: sim_cycles_per_s on
    // uniform_8x8x8_overload, where most attempts are refused.
    m("net.fabric3d.inject_s", "s"),
    m("net.fabric3d.inject_attempts", "count"),
    m("net.fabric3d.inject_accept_ratio", "ratio"),
    m("net.fabric3d.take_delivered_s", "s"),
    m("net.fabric3d.backpressure_rejections", "count"),
    // memory_report before and after the run: peak_rss_mb on
    // uniform_16x16x16_sharded.
    m("net.fabric3d.bytes_per_router_fresh", "B"),
    m("net.fabric3d.bytes_per_router_end", "B"),
    // The router step and the link work it does: sim_cycles_per_s on
    // uniform_8x8x8_overload.
    m("net.router.step_s", "s"),
    m("net.router.step_calls", "count"),
    m("net.router.host_ns_per_flit_hop", "ns"),
    m("net.link.flit_hops", "count"),
    // The shard pool: sim_cycles_per_s on uniform_16x16x16_sharded;
    // zero on the serial workloads.
    m("net.router.shard.sync_ops_per_cycle", "1/cycle"),
    m("net.router.shard.epochs", "count"),
    m("net.router.shard.mean_window_cycles", "cycles"),
    // Telemetry recording: sim_cycles_per_s on md_halo_4x4x8_telemetry
    // only.
    m("net.telemetry.overhead_ratio", "ratio"),
    m("net.telemetry.summary_s", "s"),
    // The MD substrate: setup_s on both MD workloads, sim_cycles_per_s
    // on md_step_2x2x2_compressed.
    m("md.setup_s", "s"),
    m("md.force_s", "s/step"),
    // The machine step and compression: sim_cycles_per_s and
    // sim_mean_latency_ns on md_step_2x2x2_compressed.
    m("machine.mdrun.step_s", "s/step"),
    m("machine.mdrun.network_s", "s/step"),
    m("compress.wire_reduction", "ratio"),
    m("compress.pcache_hit_rate", "ratio"),
    // Traced wall time over untraced wall time of the same work.
    m("trace.overhead_ratio", "ratio"),
];

/// The result of one run: metric values, operation counts and the
/// outcome of every output check.
pub struct Report {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// An untraced run's report (end-to-end metrics, all required), or a
    /// traced run's (per-layer metrics, 0 unless set).
    pub fn new(traced: bool) -> Self {
        let (defs, init) = if traced {
            (PER_LAYER, Some(0.0))
        } else {
            (END_TO_END, None)
        };
        Report {
            defs,
            values: vec![init; defs.len()],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this report"));
        self.values[i] = Some(value);
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                let v = v.unwrap_or_else(|| panic!("metric {} was never set", d.name));
                assert!(v.is_finite(), "metric {} is {v}", d.name);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// The `"name": "..."` values listed under `key` in BENCHMARK.json.
    fn listed_names(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("name value") + 1..];
                rest[..rest.find('"').expect("name ends")].to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are used once");
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
        assert!(!valid_unit("flits per cycle") && !valid_unit(""));
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let names = |defs: &[MetricDef]| -> Vec<String> {
            defs.iter().map(|d| d.name.to_string()).collect()
        };
        assert_eq!(listed_names(&json, "end_to_end"), names(END_TO_END));
        assert_eq!(listed_names(&json, "per_layer"), names(PER_LAYER));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let unit = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(json.contains(&unit), "BENCHMARK.json unit of {}", d.name);
        }
    }

    #[test]
    fn result_line_has_every_metric_and_failed_checks_make_it_incorrect() {
        let mut r = Report::new(false);
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        r.attempted = 10;
        r.check("fine", true);
        let line = r.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", d.name)));
        }
        r.check("broken", false);
        assert!(!r.correct());
        assert!(r.json().starts_with("{\"correct\": false"));
        assert_eq!(r.failures(), ["broken"]);
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn an_unset_end_to_end_metric_is_a_bug() {
        Report::new(false).json();
    }

    #[test]
    fn traced_reports_default_unreached_layers_to_zero() {
        let mut r = Report::new(true);
        r.set("net.router.step_s", 0.25);
        let line = r.json();
        assert!(line.contains("\"net.router.step_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"md.force_s\": {\"value\": 0, \"unit\": \"s/step\"}"));
    }
}
