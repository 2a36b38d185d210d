//! The metric catalog and the result of one run.
//!
//! The catalog below is the single list of metric names, units and
//! directions; `BENCHMARK.json` at the repo root repeats it for the driver,
//! and a unit test holds the two equal.

use crate::stats::Summary;
use serde::Value;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalog row.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Every workload reports all four.
pub const END_TO_END: [Def; 4] = [
    lo("setup_s", "s"),
    hi("ops_per_s", "op/s"),
    lo("op_p50_ms", "ms"),
    lo("peak_rss_mb", "MB"),
];

/// Single-layer metrics of the traced run, grouped by the repo module they
/// measure. See benchmark/README.md for the definition of each.
pub const PER_LAYER: [Def; 59] = [
    // serve::tcp
    lo("tcp.request_bytes", "bytes"),
    lo("tcp.response_bytes", "bytes"),
    lo("tcp.parse_us", "us"),
    lo("tcp.encode_us", "us"),
    lo("tcp.socket_us", "us"),
    // core::serving, client half of the wire types
    lo("wire.client_encode_us", "us"),
    lo("wire.client_parse_us", "us"),
    // serve::server
    lo("server.micros_us", "us"),
    lo("server.overhead_us", "us"),
    hi("server.avg_batch", "jobs"),
    hi("server.batched_share", "share"),
    lo("server.forwards_per_op", "count"),
    lo("server.rejected", "count"),
    lo("server.failed", "count"),
    // core::inference / core::tiling
    lo("core.downscale_us", "us"),
    lo("core.split_us", "us"),
    lo("core.stitch_us", "us"),
    lo("core.tile_forward_us", "us"),
    lo("core.tiles_per_op", "count"),
    hi("core.par_efficiency", "share"),
    // model, through TimedExec
    lo("model.forward_us", "us"),
    lo("model.linear_us", "us"),
    lo("model.attn_matmul_us", "us"),
    lo("model.softmax_us", "us"),
    lo("model.norm_us", "us"),
    lo("model.conv_us", "us"),
    lo("model.resize_us", "us"),
    lo("model.elementwise_us", "us"),
    lo("model.movement_us", "us"),
    lo("model.host_us", "us"),
    lo("model.ops_per_forward", "count"),
    lo("model.loss_ms", "ms"),
    lo("model.session_prepare_ms", "ms"),
    // tensor: computed from shapes, or read from the buffer pool's counters
    lo("tensor.gemm_flops_per_forward", "flop"),
    hi("tensor.gemm_gflops", "Gflop/s"),
    lo("tensor.weight_bytes_per_forward", "bytes"),
    lo("tensor.attn_score_bytes_per_forward", "bytes"),
    lo("tensor.pool_fresh_allocs_per_op", "count"),
    hi("tensor.pool_reuse_share", "share"),
    // autograd
    lo("autograd.backward_ms", "ms"),
    lo("autograd.tape_nodes", "count"),
    lo("autograd.grad_map_ms", "ms"),
    lo("autograd.reduce_ms", "ms"),
    lo("autograd.adam_ms", "ms"),
    // core::trainer / core::checkpoint
    lo("trainer.step_batch_ms", "ms"),
    lo("trainer.job_ms", "ms"),
    hi("trainer.par_efficiency", "share"),
    lo("ckpt.save_ms", "ms"),
    lo("ckpt.load_ms", "ms"),
    lo("ckpt.bytes", "bytes"),
    // climate (+ fft)
    lo("climate.sample_ms", "ms"),
    lo("climate.normalizer_fit_ms", "ms"),
    // process and harness
    lo("client.op_p90_ms", "ms"),
    lo("client.op_max_ms", "ms"),
    lo("proc.cpu_ms_per_op", "ms"),
    lo("proc.threads_peak", "count"),
    lo("trace.overhead_share", "share"),
    lo("trace.unattributed_share", "share"),
    lo("trace.span_floor_ns", "ns"),
];

/// Nanoseconds per one of `unit`, when `unit` is a time.
fn ns_per_time_unit(unit: &str) -> Option<f64> {
    match unit {
        "ns" => Some(1.0),
        "us" => Some(1e3),
        "ms" => Some(1e6),
        "s" => Some(1e9),
        _ => None,
    }
}

/// One reported number with the sample it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The reported value (a median unless the glossary says otherwise).
    pub value: f64,
    /// First quartile of the sample (the value itself when n = 1).
    pub q1: f64,
    /// Third quartile of the sample.
    pub q3: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// Metrics by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, Metric>);

impl Metrics {
    /// Record a single measured value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(
            name,
            Metric {
                value,
                q1: value,
                q3: value,
                n: 1,
            },
        );
    }

    /// Record the median of `sample` scaled by `scale` (e.g. ns → µs), with
    /// its quartiles and count. An empty sample records nothing.
    pub fn put_sample(&mut self, name: &'static str, sample: &[f64], scale: f64) {
        if sample.is_empty() {
            return;
        }
        let s = Summary::of(sample);
        self.0.insert(
            name,
            Metric {
                value: s.median * scale,
                q1: s.q1 * scale,
                q3: s.q3 * scale,
                n: s.n,
            },
        );
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    /// Give every catalog metric in `defs` a value. A layer that is not on
    /// this workload's path has no spans, so its time reads below the
    /// tracer's resolution: it is reported as that resolution — the
    /// measured cost of one empty span, `floor_ns` — in the metric's unit.
    /// Counts, shares and bytes of such a layer are 0.
    pub fn fill_off_path(&mut self, defs: &[Def], floor_ns: f64) {
        for d in defs {
            if !self.0.contains_key(d.name) {
                let v = ns_per_time_unit(d.unit).map_or(0.0, |per| floor_ns / per);
                self.0.insert(
                    d.name,
                    Metric {
                        value: v,
                        q1: v,
                        q3: v,
                        n: 0,
                    },
                );
            }
        }
    }

    /// `{name: {value, unit}}` for exactly the metrics in `defs`, the shape
    /// the driver reads. Panics if one is missing: that is a harness bug.
    pub fn contract_json(&self, defs: &[Def]) -> Value {
        Value::Object(
            defs.iter()
                .map(|d| {
                    let m = self
                        .0
                        .get(d.name)
                        .unwrap_or_else(|| panic!("metric {} not measured", d.name));
                    let mut o = BTreeMap::new();
                    o.insert("value".to_string(), Value::Number(m.value));
                    o.insert("unit".to_string(), Value::String(d.unit.to_string()));
                    (d.name.to_string(), Value::Object(o))
                })
                .collect(),
        )
    }

    /// `{name: {value, unit, n, q1, q3}}` for the metrics in `defs`, the
    /// shape `results.json` keeps.
    pub fn detail_json(&self, defs: &[Def]) -> Value {
        Value::Object(
            defs.iter()
                .filter_map(|d| {
                    let m = self.0.get(d.name)?;
                    let mut o = BTreeMap::new();
                    o.insert("value".to_string(), Value::Number(m.value));
                    o.insert("unit".to_string(), Value::String(d.unit.to_string()));
                    o.insert("n".to_string(), Value::Number(m.n as f64));
                    o.insert("q1".to_string(), Value::Number(m.q1));
                    o.insert("q3".to_string(), Value::Number(m.q3));
                    Some((d.name.to_string(), Value::Object(o)))
                })
                .collect(),
        )
    }
}

/// Build a JSON object from `(key, value)` pairs.
pub fn object<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every check on the program's outputs passed.
    pub correct: bool,
    /// Ops attempted in the timed windows.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
    /// Workload-specific facts worth keeping beside the metrics, e.g. the
    /// bits of the last training loss.
    pub facts: BTreeMap<String, Value>,
}

impl RunResult {
    /// The one line the driver reads.
    pub fn contract_line(&self, defs: &[Def]) -> String {
        let v = object([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", self.metrics.contract_json(defs)),
        ]);
        serde_json::to_string(&v).expect("a value tree serializes")
    }

    /// The detailed record the suite collects.
    pub fn detail(&self, defs: &[Def]) -> Value {
        object([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Number(self.attempted as f64)),
            (
                "succeeded",
                Value::Number((self.attempted - self.failed) as f64),
            ),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", self.metrics.detail_json(defs)),
            ("facts", Value::Object(self.facts.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(section: &Value) -> Vec<(String, String, String)> {
        section
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let o = m.as_object().expect("a metric object");
                let s = |k: &str| o[k].as_str().expect("a string").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn catalog(defs: &[Def]) -> Vec<(String, String, String)> {
        let word = |b| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), word(d.better).into()))
            .collect()
    }

    /// `BENCHMARK.json` and the catalog name the same metrics, in the same
    /// order, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let o = v.as_object().expect("an object");
        assert_eq!(names_of(&o["end_to_end"]), catalog(&END_TO_END));
        assert_eq!(names_of(&o["per_layer"]), catalog(&PER_LAYER));
        let workloads: Vec<&str> = o["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.as_object().unwrap()["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::ALL.iter().map(|s| s.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn off_path_times_read_the_floor_and_counts_read_zero() {
        let mut m = Metrics::default();
        m.put("tcp.parse_us", 12.5);
        m.fill_off_path(&PER_LAYER, 50.0);
        assert_eq!(m.get("tcp.parse_us"), Some(12.5));
        assert_eq!(m.get("tcp.encode_us"), Some(0.05));
        assert_eq!(m.get("ckpt.save_ms"), Some(50.0 / 1e6));
        assert_eq!(m.get("ckpt.bytes"), Some(0.0));
        assert_eq!(m.get("server.batched_share"), Some(0.0));
    }

    #[test]
    fn contract_line_has_exactly_the_driver_keys() {
        let mut metrics = Metrics::default();
        for d in END_TO_END {
            metrics.put(d.name, 1.25);
        }
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
            facts: BTreeMap::new(),
        };
        let v: Value = serde_json::from_str(&r.contract_line(&END_TO_END)).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.as_object().unwrap()["metrics"].as_object().unwrap();
        assert_eq!(m.len(), 4);
        let keys: Vec<&String> = m["setup_s"].as_object().unwrap().keys().collect();
        assert_eq!(keys, ["unit", "value"]);
    }
}
