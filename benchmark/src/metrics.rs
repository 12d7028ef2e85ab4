//! The metric names and units this benchmark reports, in one place. The
//! same two lists are written in `/BENCHMARK.json`; a test keeps them equal.

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, reported by every workload
/// with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("cpu_us_per_item", "us"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, reported by the traced run.
/// A metric whose layer the traced workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The workload's three timed stages, from the traced run's untraced
    // repetition (what each stage is: benchmark/README.md).
    ("stage1_per_s", "1/s"),
    ("stage2_per_s", "1/s"),
    ("stage3_per_s", "1/s"),
    // u1-workload — spans around `Driver::run` (month workloads).
    ("workload.run_s", "s"),
    ("workload.ops", "count"),
    ("workload.self_ns_per_op", "ns"),
    ("workload.allocs_per_op", "count"),
    ("workload.op_errors", "count"),
    ("workload.w2_speedup", "ratio"),
    // u1-server — the sat script replayed through DirectTransport.
    ("server.direct_meta_ns_per_op", "ns"),
    ("server.open_session_ns", "ns"),
    ("server.direct_upload_ns_per_mib", "ns"),
    ("server.direct_download_ns_per_mib", "ns"),
    ("server.allocs_per_meta_op", "count"),
    // u1-metastore — MetaStore's public calls on a seeded script.
    ("metastore.mix_ns_per_op.small", "ns"),
    ("metastore.mix_ns_per_op.wide", "ns"),
    ("metastore.make_node_ns", "ns"),
    ("metastore.get_delta_ns", "ns"),
    ("metastore.unlink_ns", "ns"),
    ("metastore.move_node_ns", "ns"),
    ("metastore.make_content_ns", "ns"),
    ("metastore.allocs_per_op", "count"),
    ("metastore.bytes_per_node", "B"),
    // u1-blobstore
    ("blobstore.put_ns_per_mib", "ns"),
    ("blobstore.get_ns_per_mib", "ns"),
    ("blobstore.sparse_part_ns", "ns"),
    // u1-auth
    ("auth.token_lookup_ns", "ns"),
    // u1-notify
    ("notify.publish_ns", "ns"),
    ("notify.deliveries_per_publish", "count"),
    // u1-proto
    ("proto.encode_small_ns", "ns"),
    ("proto.decode_small_ns", "ns"),
    ("proto.allocs_per_small_msg", "count"),
    ("proto.chunk_encode_ns_per_mib", "ns"),
    ("proto.chunk_decode_ns_per_mib", "ns"),
    ("proto.alloc_bytes_per_chunk_byte", "ratio"),
    // u1-net
    ("net.poll_wake_ns", "ns"),
    // wire — u1-server::tcpserver + u1-client::TcpTransport (wire_loopback).
    ("wire.pingpong_ns_per_op", "ns"),
    ("wire.overhead_ns_per_op", "ns"),
    ("wire.sat_ops_per_s.w1", "1/s"),
    ("wire.sat_ops_per_s.w16", "1/s"),
    ("wire.sat_ops_per_s.w64", "1/s"),
    ("wire.lat_p50_us", "us"),
    ("wire.lat_p90_us", "us"),
    ("wire.lat_p99_us", "us"),
    ("wire.lat_p999_us", "us"),
    ("wire.lat_max_us", "us"),
    ("wire.gen_late_p99_us", "us"),
    ("wire.connect_auth_ns", "ns"),
    ("wire.idle256_delta_ns_per_op", "ns"),
    ("wire.alloc_bytes_per_payload_byte", "ratio"),
    ("wire.protocol_errors", "count"),
    ("wire.evicted_slow", "count"),
    ("wire.pushes_forwarded", "count"),
    // u1-trace
    ("trace.encode_ns_per_record", "ns"),
    ("trace.parse_ns_per_record", "ns"),
    ("trace.bytes_per_record", "B"),
    ("trace.memsink_ns_per_record", "ns"),
    ("trace.take_sorted_ns_per_record", "ns"),
    ("trace.dirsink_ns_per_record", "ns"),
    ("trace.daychunk_ns_per_record", "ns"),
    ("trace.io_errors", "count"),
    ("trace.malformed", "count"),
    // u1-analytics
    ("analytics.fold_ns_per_record", "ns"),
    ("analytics.offdisk_fold_ns_per_record", "ns"),
    ("analytics.chunked_ns_per_record", "ns"),
    ("analytics.allocs_per_kilorecord", "count"),
    ("analytics.peak_chunk_records", "count"),
    // u1-core
    ("core.sha1_mib_per_s", "MiB/s"),
    ("core.canonical_hash_ns_per_record", "ns"),
    // the benchmark itself
    ("bench.trace_overhead_share", "ratio"),
    ("bench.first_run_s", "s"),
];

/// The values of one run, keyed by metric name.
#[derive(Debug, Clone)]
pub struct Metrics {
    units: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every metric of `units`, all reading 0 until set.
    pub fn new(units: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            units,
            values: units.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }

    /// Sets a metric. Panics on a name outside the list: that is a bug in
    /// this benchmark, not a condition a run can meet.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the list"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `{name: {"value": v, "unit": u}}` in list order.
    pub fn to_json(&self) -> Value {
        let map: Map = self
            .units
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    json!({ "value": self.get(name), "unit": unit }),
                )
            })
            .collect();
        Value::Object(map)
    }
}

/// What one run hands back to `main`: the contract's result line.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn to_line(&self) -> String {
        let doc = json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics.to_json(),
        });
        serde_json::to_string(&doc).unwrap_or_else(|_| "{}".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `/BENCHMARK.json` is what the driver reads; these lists are what the
    /// program prints. They must name the same metrics with the same units.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = crate::json::parse(&text).expect("parse BENCHMARK.json");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 1.5);
        let line = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: m,
        }
        .to_line();
        let doc = crate::json::parse(&line).expect("parse");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(1.5)
        );
    }
}
