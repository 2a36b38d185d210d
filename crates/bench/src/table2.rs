//! Table II: (a) ViT vs Reslim architecture comparison; (b) adaptive
//! compression and tiling speedups.
//!
//! Two complementary sources feed these rows:
//! * the *simulator* predicts the paper-scale numbers (128 Frontier GPUs,
//!   777K-token sequences) via the calibrated cost models;
//! * the *real kernels* measure the same ratios at CPU scale — a tiny
//!   Reslim vs a tiny upsample-first ViT on identical inputs — proving the
//!   shape is real, not an artifact of the calibration.

use crate::fmt::{sci, Table};
use orbit2_model::{BaselineVit, ModelConfig, ReslimModel};
use orbit2_sim::cost::{compression_speedup, tiling_speedup};
use orbit2_sim::planner::{arch_comparison, SequenceAccounting};
use orbit2_sim::topology::ClusterSpec;
use orbit2_tensor::random::randn;
use std::time::Instant;

/// Simulated Table II(a): paper-scale architecture comparison at 128 GPUs.
pub fn render_2a_simulated() -> String {
    let cluster = ClusterSpec::frontier();
    let cfg = ModelConfig::paper_9_5m();
    let mut t = Table::new(&[
        "Arch",
        "Model",
        "Resolution",
        "Seq len",
        "Time/sample (s)",
        "Speedup",
        "Paper time",
        "Paper speedup",
    ]);
    let tasks = [
        (
            "622->156 km",
            SequenceAccounting { out_h: 128, out_w: 256, out_c: 3, patch: 2, factor: 4 },
            "7.3e-4",
            "1",
            "1.1e-6",
            "660",
        ),
        (
            "112->28 km",
            SequenceAccounting { out_h: 720, out_w: 1440, out_c: 3, patch: 2, factor: 4 },
            "OOM",
            "NA",
            "1.2e-3",
            "NA",
        ),
    ];
    for (res, acc, paper_vit_t, _paper_vit_s, paper_reslim_t, paper_speedup) in tasks {
        let (vit_t, vit_oom, reslim_t, speedup) = arch_comparison(&cfg, &acc, 128, &cluster);
        t.row(vec![
            "ViT".into(),
            "9.5M".into(),
            res.into(),
            crate::fmt::count(acc.nominal_seq_len()),
            if vit_oom { "OOM".into() } else { sci(vit_t) },
            "1".into(),
            paper_vit_t.into(),
            "1".into(),
        ]);
        t.row(vec![
            "Reslim".into(),
            "9.5M".into(),
            res.into(),
            crate::fmt::count(acc.nominal_seq_len()),
            sci(reslim_t),
            if vit_oom { "NA".into() } else { format!("{speedup:.0}") },
            paper_reslim_t.into(),
            paper_speedup.into(),
        ]);
    }
    format!("Table II(a) [simulated, Frontier @128 GPUs]:\n{}", t.render())
}

/// Timed forwards per architecture in [`render_2a_measured`]: the minimum
/// over them is the reported time.
const REPS_2A: usize = 10;

/// Measured Table II(a): real forward-pass wall-clock of the tiny twins on
/// this CPU, tape-free, each the fastest of `reps` forwards after one
/// warm-up. The two architectures alternate, so a slow stretch of a shared
/// machine lands on both. Returns `(vit_time_s, reslim_time_s, speedup)`.
fn measure_2a_kernels(h: usize, w: usize, reps: usize) -> (f64, f64, f64) {
    let cfg = ModelConfig::tiny().with_channels(7, 3);
    let reslim = ReslimModel::new(cfg, 1);
    let vit = BaselineVit::new(cfg, 1);
    // Sessions are prepared outside the timed region: pure forward cost.
    let reslim_sess = reslim.session();
    let vit_sess = vit.session();
    let input = randn(&[7, h, w], 42);
    let time = |f: &dyn Fn()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let vit_forward = || {
        let _ = vit.forward(&vit_sess, &input).into_tensor();
    };
    let reslim_forward = || {
        let _ = reslim.forward(&reslim_sess, &input, 1.0).0.into_tensor();
    };
    vit_forward();
    reslim_forward();
    let (mut t_vit, mut t_reslim) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        t_vit = t_vit.min(time(&vit_forward));
        t_reslim = t_reslim.min(time(&reslim_forward));
    }
    (t_vit, t_reslim, t_vit / t_reslim)
}

/// Render the measured kernel comparison.
pub fn render_2a_measured() -> String {
    let (t_vit, t_reslim, speedup) = measure_2a_kernels(16, 32, REPS_2A);
    let time = format!("Forward time (s, min of {REPS_2A})");
    let mut t = Table::new(&["Arch", "Input", &time, "Speedup"]);
    t.row(vec!["upsample-first ViT".into(), "[7,16,32] -> [3,64,128]".into(), sci(t_vit), "1".into()]);
    t.row(vec!["Reslim".into(), "[7,16,32] -> [3,64,128]".into(), sci(t_reslim), format!("{speedup:.1}")]);
    format!(
        "Table II(a) [measured on this CPU, tiny twins — same inputs, same output]:\n{}\
         (The paper's 660x arises at seq 24,576 where attention dominates; at this tiny scale the\n\
          quadratic term is smaller, so the measured ratio is a lower bound of the mechanism.)\n",
        t.render()
    )
}

/// Table II(b): compression / tiling speedups from the calibrated cost
/// model, next to the paper's values.
pub fn render_2b() -> String {
    let mut t = Table::new(&["Config", "Compression", "Tiles", "Speedup (model)", "Speedup (paper)"]);
    for (c, paper) in [(8usize, "3.3"), (16, "6.6"), (32, "7.1")] {
        t.row(vec![
            "Reslim 112->28".into(),
            format!("{c}x"),
            "1".into(),
            format!("{:.1}", compression_speedup(c)),
            paper.into(),
        ]);
    }
    for (tiles, paper) in [(4usize, "1.5"), (16, "1.9"), (36, "1.6")] {
        t.row(vec![
            "Reslim 112->28".into(),
            "1x".into(),
            format!("{tiles}"),
            format!("{:.1}", tiling_speedup(tiles)),
            paper.into(),
        ]);
    }
    format!("Table II(b) [calibrated cost model vs paper]:\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_2a_has_oom_and_speedup() {
        let s = render_2a_simulated();
        assert!(s.contains("OOM"));
        assert!(s.contains("Reslim"));
    }

    #[test]
    fn measured_kernels_show_reslim_wins() {
        let (_tv, _tr, speedup) = measure_2a_kernels(8, 16, 1);
        assert!(speedup > 1.0, "Reslim must beat the upsample-first ViT, got {speedup}");
    }

    #[test]
    fn table_2b_shape() {
        let s = render_2b();
        assert!(s.contains("32x"));
        assert!(s.contains("36"));
    }
}
