//! `core::inference::downscale_with`, re-assembled from the same public
//! functions with a span around each, and the per-layer metrics read from
//! those spans. Shared by the three inference workloads: it is the traced
//! op of `tiles-field` and the model-side probe of `serve-*`.

use crate::report::Metrics;
use crate::timed_exec::{class, ShapeTally, TimedExec};
use crate::trace::{self, Span, SpanId, Tracer};
use orbit2::tiling::{split_stack, stitch_predictions};
use orbit2_climate::Normalizer;
use orbit2_imaging::tiles::{TileGeometry, TileSpec};
use orbit2_model::{InferenceSession, ReslimModel};
use orbit2_tensor::Tensor;
use rayon::prelude::*;

/// Span name of the whole traced downscale.
pub const DOWNSCALE: &str = "core.downscale";
/// Span name of `normalize_input` + `split_stack`.
pub const SPLIT: &str = "core.split";
/// Span name of `stitch_predictions` + `denormalize_target`.
pub const STITCH: &str = "core.stitch";
/// Span name of one `ReslimModel::forward`, on a tile or in a training job.
pub const FORWARD: &str = "model.forward";

/// Everything a downscale call needs besides the input.
#[derive(Clone, Copy)]
pub struct Downscaler<'a> {
    /// The model.
    pub model: &'a ReslimModel,
    /// A session prepared from `model`.
    pub session: &'a InferenceSession,
    /// The normalizer fitted during set-up.
    pub normalizer: &'a Normalizer,
    /// TILES split, or `None` for the whole sample.
    pub tile: Option<TileSpec>,
}

impl Downscaler<'_> {
    /// The untraced call: `core::inference::downscale_with` itself.
    pub fn direct(&self, input: &Tensor) -> Tensor {
        orbit2::downscale_with(
            self.model,
            self.session,
            self.normalizer,
            input,
            self.tile,
            1.0,
        )
        .expect("generated inputs pass validation")
    }

    /// What `downscale_with` does, step for step — normalise, split,
    /// forward every tile in parallel, stitch, denormalise — with each step
    /// in a span under `parent` and every model op in a span under its
    /// tile's forward. Returns the output, which is bit-identical to
    /// [`direct`](Self::direct) (the workloads check that on every op), and
    /// the shape tally of each tile's forward.
    pub fn traced(
        &self,
        input: &Tensor,
        tracer: &Tracer,
        parent: SpanId,
        op: u32,
    ) -> (Tensor, Vec<ShapeTally>) {
        let root = tracer.open(DOWNSCALE, parent, op);
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let spec = self.tile.unwrap_or(TileSpec {
            tiles_y: 1,
            tiles_x: 1,
            halo: 0,
        });
        let tiles = tracer.within(SPLIT, root.id(), op, || {
            split_stack(&self.normalizer.normalize_input(input), spec)
        });
        let (preds, tallies): (Vec<(TileGeometry, Tensor)>, Vec<ShapeTally>) = tiles
            .par_iter()
            .map(|(geom, tile_input)| {
                let forward = tracer.open(FORWARD, root.id(), op);
                let timed = TimedExec::new(self.session, tracer, forward.id(), op);
                let (pred, _) = self.model.forward(&timed, tile_input, 1.0);
                ((*geom, pred.into_tensor()), timed.tally())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .unzip();
        let out = tracer.within(STITCH, root.id(), op, || {
            let stitched = stitch_predictions(&preds, h, w, self.model.cfg.scale_factor);
            self.normalizer.denormalize_target(&stitched)
        });
        (out, tallies)
    }
}

/// `model.*` and the computed `tensor.*` metrics from the forward spans in
/// `spans` and the shape tallies of the same forwards.
pub fn model_metrics(m: &mut Metrics, spans: &[Span], tallies: &[ShapeTally]) {
    const US: f64 = 1e-3;
    let forwards: Vec<&Span> = spans.iter().filter(|s| s.name == FORWARD).collect();
    if forwards.is_empty() {
        return;
    }
    let selfs = trace::self_times(spans);
    let forward_ns: Vec<f64> = forwards.iter().map(|s| s.dur_ns() as f64).collect();
    m.put_sample("model.forward_us", &forward_ns, US);
    for (metric, name) in [
        ("model.linear_us", class::LINEAR),
        ("model.attn_matmul_us", class::ATTN_MATMUL),
        ("model.softmax_us", class::SOFTMAX),
        ("model.norm_us", class::NORM),
        ("model.conv_us", class::CONV),
        ("model.resize_us", class::RESIZE),
        ("model.elementwise_us", class::ELEMENTWISE),
        ("model.movement_us", class::MOVEMENT),
    ] {
        m.put_sample(metric, &trace::child_sums(spans, FORWARD, name), US);
    }
    // Host time of a forward is its self time: what no op span covers.
    let host: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == FORWARD)
        .map(|(_, &t)| t as f64)
        .collect();
    m.put_sample("model.host_us", &host, US);

    let per =
        |f: fn(&ShapeTally) -> u64| -> Vec<f64> { tallies.iter().map(|t| f(t) as f64).collect() };
    m.put_sample("model.ops_per_forward", &per(|t| t.ops), 1.0);
    m.put_sample("tensor.gemm_flops_per_forward", &per(|t| t.gemm_flops), 1.0);
    m.put_sample(
        "tensor.weight_bytes_per_forward",
        &per(|t| t.weight_bytes),
        1.0,
    );
    m.put_sample(
        "tensor.attn_score_bytes_per_forward",
        &per(|t| t.attn_score_bytes),
        1.0,
    );
    // Achieved GEMM rate: computed flops over measured GEMM time. Every
    // forward of a workload has the same shapes, so the median flop count
    // pairs with each forward's own GEMM time.
    let flops = m.get("tensor.gemm_flops_per_forward").unwrap_or(0.0);
    let linear = trace::child_sums(spans, FORWARD, class::LINEAR);
    let attn = trace::child_sums(spans, FORWARD, class::ATTN_MATMUL);
    let rates: Vec<f64> = linear
        .iter()
        .zip(&attn)
        .filter(|(l, a)| **l + **a > 0.0)
        .map(|(l, a)| flops / (l + a))
        .collect();
    // flop/ns is Gflop/s.
    m.put_sample("tensor.gemm_gflops", &rates, 1.0);
}

/// `core.*` metrics from the traced downscales in `spans`; `direct_ns` are
/// the durations of untraced `downscale_with` calls on the same inputs.
pub fn core_metrics(m: &mut Metrics, spans: &[Span], direct_ns: &[f64], nproc: usize) {
    const US: f64 = 1e-3;
    m.put_sample("core.downscale_us", direct_ns, US);
    m.put_sample(
        "core.split_us",
        &trace::child_sums(spans, DOWNSCALE, SPLIT),
        US,
    );
    m.put_sample(
        "core.stitch_us",
        &trace::child_sums(spans, DOWNSCALE, STITCH),
        US,
    );
    m.put_sample(
        "core.tile_forward_us",
        &trace::durations(spans, FORWARD),
        US,
    );
    // In id order, like `child_sums`.
    let mut downs: Vec<&Span> = spans.iter().filter(|s| s.name == DOWNSCALE).collect();
    downs.sort_by_key(|s| s.id);
    let tiles: Vec<f64> = downs
        .iter()
        .map(|d| {
            spans
                .iter()
                .filter(|s| s.name == FORWARD && s.parent == d.id)
                .count() as f64
        })
        .collect();
    m.put_sample("core.tiles_per_op", &tiles, 1.0);
    // Share of the machine's cores the tile forwards kept busy, measured
    // on the traced calls so that numerator and denominator are one run.
    let busy = trace::child_sums(spans, DOWNSCALE, FORWARD);
    let eff: Vec<f64> = downs
        .iter()
        .zip(&busy)
        .map(|(d, b)| b / (nproc as f64 * d.dur_ns() as f64))
        .collect();
    m.put_sample("core.par_efficiency", &eff, 1.0);
}

/// A 64-bit FNV-1a digest of a tensor's bit patterns: equal digests of two
/// outputs of the same shape mean bit-equal data for this harness's
/// purposes (a repeat of the same computation on the same input).
pub fn checksum(t: &Tensor) -> u64 {
    t.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Spec;

    /// The traced re-assembly is `downscale_with`, bit for bit, tiled and
    /// whole — otherwise its spans would describe a different computation.
    #[test]
    fn traced_downscale_is_bit_identical_to_downscale_with() {
        let spec = Spec {
            fine: (32, 64),
            ..*Spec::named("serve-wire").unwrap()
        };
        let ds = spec.dataset(3);
        let norm = Normalizer::fit(&ds, 2);
        let model = spec.model(3);
        let session = model.session();
        let input = ds.sample(0).input;
        for tile in [None, Some(crate::workload::TILES_2X2)] {
            let d = Downscaler {
                model: &model,
                session: &session,
                normalizer: &norm,
                tile,
            };
            let direct = d.direct(&input);
            let tracer = Tracer::new();
            let (traced, tallies) = d.traced(&input, &tracer, 0, 1);
            assert_eq!(checksum(&direct), checksum(&traced));
            assert_eq!(direct.data(), traced.data());

            let spans = tracer.snapshot();
            let tiles = tile.map_or(1, |t| t.count());
            assert_eq!(trace::durations(&spans, FORWARD).len(), tiles);
            let mut m = Metrics::default();
            model_metrics(&mut m, &spans, &tallies);
            core_metrics(&mut m, &spans, &[1.0], 2);
            assert_eq!(m.get("core.tiles_per_op"), Some(tiles as f64));
            // The op count TimedExec reports is the number of op spans
            // under each forward.
            let ops_per_forward = (spans.len() - tiles - 3) / tiles;
            assert_eq!(m.get("model.ops_per_forward"), Some(ops_per_forward as f64));
            // The classes and the host time add up to the forward.
            let parts: f64 = [
                "model.linear_us",
                "model.attn_matmul_us",
                "model.softmax_us",
                "model.norm_us",
                "model.conv_us",
                "model.resize_us",
                "model.elementwise_us",
                "model.movement_us",
                "model.host_us",
            ]
            .iter()
            .map(|k| m.get(k).unwrap())
            .sum();
            if tiles == 1 {
                let forward = m.get("model.forward_us").unwrap();
                assert!(
                    (parts - forward).abs() <= 1e-6 * forward,
                    "{parts} vs {forward}"
                );
            }
        }
    }
}
