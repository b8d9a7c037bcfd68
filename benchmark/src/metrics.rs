//! The metric tables. `BENCHMARK.json` at the repository root states the
//! same names, units, directions and bounds; a test keeps the two equal.

/// Default length of the timed part of a run, seconds.
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is a regression.
    pub bound: f64,
}

/// What a user of `kn serve` sees. `failed_share` is not in this table
/// because it is 0 on every workload by construction and a bound relative
/// to a median of 0 means nothing: failures are reported as the
/// `attempted`/`failed` counts of every result line and make the run
/// incorrect, which is stricter than a bound.
pub const END_TO_END: [EndToEndMetric; 7] = [
    EndToEndMetric {
        name: "throughput_rps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "cpu_us_per_req",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
    },
    EndToEndMetric {
        name: "latency_tail_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "speedup_geomean",
        unit: "x",
        better: "higher",
        bound: 0.01,
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)`. The layer is the part of the name before the
/// first dot and is a module of the repository.
pub const PER_LAYER: [(&str, &str, &str); 73] = [
    ("wire.parse_ns", "ns", "lower"),
    ("wire.render_ns", "ns", "lower"),
    ("wire.request_bytes", "bytes", "lower"),
    ("wire.response_bytes", "bytes", "lower"),
    ("wire.share", "share", "lower"),
    ("net.rtt1_us", "us", "lower"),
    ("net.overhead_us", "us", "lower"),
    ("net.share", "share", "lower"),
    ("service.overhead_us", "us", "lower"),
    ("service.busy_share", "share", "higher"),
    ("service.queue_depth_mean", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.overloaded", "count", "lower"),
    ("service.expired", "count", "lower"),
    ("service.replaced_workers", "count", "lower"),
    ("service.share", "share", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.coalesced", "count", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.hit_path_us", "us", "lower"),
    ("cache.share", "share", "lower"),
    ("verify.lint_ns", "ns", "lower"),
    ("verify.lint_rejects", "count", "lower"),
    ("verify.lint_expected", "count", "lower"),
    ("verify.certify_ns", "ns", "lower"),
    ("verify.share", "share", "lower"),
    ("ddg.read_ns", "ns", "lower"),
    ("ddg.parse_ns", "ns", "lower"),
    ("ddg.parse_nodes_per_s", "1/s", "higher"),
    ("ddg.classify_ns", "ns", "lower"),
    ("ddg.share", "share", "lower"),
    ("workloads.by_name_ns", "ns", "lower"),
    ("ir.analyze_ns", "ns", "lower"),
    ("ir.lower_ns", "ns", "lower"),
    ("xform.transform_ns", "ns", "lower"),
    ("xform.certify_ns", "ns", "lower"),
    ("xform.applied_share", "share", "higher"),
    ("xform.pieces_mean", "count", "higher"),
    ("xform.share", "share", "lower"),
    ("sched.cyclic_ns", "ns", "lower"),
    ("sched.instantiate_ns", "ns", "lower"),
    ("sched.static_times_ns", "ns", "lower"),
    ("sched.schedule_loop_ns", "ns", "lower"),
    ("sched.flow_self_ns", "ns", "lower"),
    ("sched.pattern_found_share", "share", "higher"),
    ("sched.ii_over_mii", "ratio", "lower"),
    ("sched.program_instances", "count", "lower"),
    ("sched.allocs_per_call", "count", "lower"),
    ("sched.share", "share", "lower"),
    ("doacross.schedule_ns", "ns", "lower"),
    ("sim.run_ns", "ns", "lower"),
    ("sim.instances_per_s", "1/s", "higher"),
    ("sim.messages_mean", "count", "lower"),
    ("sim.allocs_per_call", "count", "lower"),
    ("sim.share", "share", "lower"),
    ("core.execute_ns", "ns", "lower"),
    ("core.layers_sum_ns", "ns", "lower"),
    ("core.coverage", "ratio", "higher"),
    ("core.allocs_per_request", "count", "lower"),
    ("core.alloc_bytes_per_request", "bytes", "lower"),
    ("gen.late_share", "share", "lower"),
    ("gen.late_p99_us", "us", "lower"),
    ("client.latency_p95_us", "us", "lower"),
    ("client.latency_p99_us", "us", "lower"),
    ("client.requests", "count", "higher"),
    ("trace.requests", "count", "higher"),
    ("trace.distinct", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.replica_mismatches", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_states_the_same_metrics_workloads_and_run_length() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(json::Value::num),
            Some(RUN_SECONDS as f64)
        );

        let e2e = doc.get("end_to_end").unwrap().arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").unwrap().str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().str(), Some(m.unit), "{}", m.name);
            assert_eq!(j.get("better").unwrap().str(), Some(m.better), "{}", m.name);
            assert_eq!(j.get("bound").unwrap().num(), Some(m.bound), "{}", m.name);
            assert!(m.bound <= 0.25);
        }

        let layers = doc.get("per_layer").unwrap().arr();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("name").unwrap().str(), Some(*name));
            assert_eq!(j.get("unit").unwrap().str(), Some(*unit), "{name}");
            assert_eq!(j.get("better").unwrap().str(), Some(*better), "{name}");
        }

        let workloads = doc.get("workloads").unwrap().arr();
        assert_eq!(workloads.len(), crate::gen::WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&crate::gen::WORKLOADS) {
            assert_eq!(j.get("name").unwrap().str(), Some(w.name));
            assert_eq!(j.get("why").unwrap().str(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
            .chain(crate::gen::WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in names {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }
}
