//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same names and units; a test below keeps the
//! two in step.

use std::collections::BTreeMap;

/// A metric: name and unit.
pub type Metric = (&'static str, &'static str);

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["solve-tiny", "prepare-large"];

/// What a user of the system sees; printed with `--trace 0`.
pub const END_TO_END: [Metric; 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer figures of the traced run; printed with `--trace 1`.  Times are
/// per-call medians of the layer's self time; counts are means per call of
/// the layer (0 where the workload never calls it).
pub const PER_LAYER: [Metric; 52] = [
    ("datagen.dataset_build_s", "s"),
    ("service.start_s", "s"),
    ("geotext.grid_score_us", "us"),
    ("geotext.delta_score_us", "us"),
    ("geotext.scored_nodes", "count"),
    ("roadnet.region_view_us", "us"),
    ("roadnet.nodes_in_rect", "count"),
    ("roadnet.edges_in_rect", "count"),
    ("query_graph.build_us", "us"),
    ("solve.solve_us", "us"),
    ("solve.solve_p99_us", "us"),
    ("tgen.solve_share", "%"),
    ("tgen.tuples_generated", "count"),
    ("tgen.pruned_pairs", "count"),
    ("tgen.dominance_evictions", "count"),
    ("tgen.frontier_peak", "count"),
    ("tgen.kept_ratio", "ratio"),
    ("app.solve_share", "%"),
    ("app.kmst_calls", "count"),
    ("app.tuples_generated", "count"),
    ("app.pruned_pairs", "count"),
    ("greedy.solve_share", "%"),
    ("greedy.steps", "count"),
    ("topk.solve_share", "%"),
    ("region.translate_us", "us"),
    ("arena.allocs", "count"),
    ("arena.reuse_ratio", "ratio"),
    ("cancel.overrun_x", "x"),
    ("cancel.tgen_overrun_x", "x"),
    ("cancel.app_overrun_x", "x"),
    ("cancel.partial_frac", "ratio"),
    ("cancel.answer_weight_mean", "weight"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.stale", "count"),
    ("cache.delta_prepare_ratio", "ratio"),
    ("api.decode_us", "us"),
    ("api.encode_us", "us"),
    ("scheduler.queue_ms", "ms"),
    ("scheduler.mean_batch_size", "count"),
    ("scheduler.shed", "count"),
    ("http.overhead_ms", "ms"),
    ("engine.execute_us", "us"),
    ("engine.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.late_share", "%"),
    ("loadgen.slo_rate_qps", "1/s"),
    ("loadgen.mid_slowdown_x", "x"),
    ("loadgen.high_slowdown_x", "x"),
];

/// The outcome of one run: metric values, operation counts and every output
/// check that failed.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Every failed operation or output check: errors, non-200 or cut
    /// responses, wrong answers.
    problems: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    /// Records a metric value with a note (sample count, percentile) for the
    /// human-readable lines.
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.values.insert(name, (value, note));
    }

    /// Records a failed output check; the run is then not correct.
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            eprintln!("check failed: {message}");
        }
        self.problems.push(message);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints every metric of `catalogue` by name, unit and note, then the
    /// result as one JSON line (the last line of standard output).  A metric
    /// the run failed to produce, or a non-finite one, is a failed check.
    pub fn emit(&mut self, catalogue: &[Metric]) {
        let mut json = Vec::new();
        for &(name, unit) in catalogue {
            let Some((value, note)) = self.values.get(name).cloned() else {
                self.problem(format!("metric {name} was not measured"));
                continue;
            };
            if !value.is_finite() {
                self.problem(format!("metric {name} is not finite: {value}"));
                continue;
            }
            println!("  {name:<28} {value:>16.6} {unit:<7} {note}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            (self.problems.len() as u64).min(self.attempted.max(1)),
            json.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmsr_service::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str, field: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let doc = benchmark_json();
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<String> = catalogue.iter().map(|m| m.0.to_string()).collect();
            let units: Vec<String> = catalogue.iter().map(|m| m.1.to_string()).collect();
            assert_eq!(listed(&doc, key, "name"), names, "{key} names");
            assert_eq!(listed(&doc, key, "unit"), units, "{key} units");
        }
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(listed(&doc, "workloads", "name"), workloads);
    }

    #[test]
    fn provenance_maps_every_layer_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/provenance.json");
        let doc = parse(&std::fs::read_to_string(path).expect("provenance.json")).expect("parses");
        let Some(Json::Object(workloads)) = doc.get("workloads") else {
            panic!("provenance.json lacks workloads");
        };
        let names: Vec<&str> = workloads.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        let mut mapped = Vec::new();
        for layer in doc.get("layers").and_then(Json::as_array).expect("layers") {
            for m in layer
                .get("metrics")
                .and_then(Json::as_array)
                .expect("metrics")
            {
                let name = m.as_str().expect("metric name");
                assert!(
                    PER_LAYER.iter().any(|p| p.0 == name),
                    "unknown metric {name}"
                );
                mapped.push(name);
            }
        }
        for (name, _) in PER_LAYER {
            assert!(
                mapped.contains(&name),
                "{name} is in no layer of provenance.json"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut report = Report::default();
        report.set("setup_s", 1.5);
        report.emit(&END_TO_END[..2]);
        assert!(!report.correct());
    }
}
