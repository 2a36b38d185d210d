//! Committed digests of trained bits: four 2×2-tiled training steps of the
//! tiny and small models at compression 1 and 2, and the synthetic samples
//! every training step, normalizer fit and workload set-up starts from.
//!
//! Each digest is FNV-1a over f32 bit patterns: for a training run, the
//! loss of every step followed by every trained parameter in name order;
//! for a sample, its input then its target. They were computed before the
//! banded weight gradient, the blocked finite check and the once-per-sample
//! field generation existed, on an FMA host (the build is
//! `-C target-cpu=native`, `.cargo/config.toml`). A kernel, a reduction or
//! a generator that moves one trained bit fails here; update a digest only
//! in a change that says why its bits moved.

use orbit2::trainer::{Trainer, TrainerConfig};
use orbit2_climate::{DownscalingDataset, LatLonGrid, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel};

/// FNV-1a (64-bit) over the little-endian bytes of each value's bits.
fn fnv1a(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One training run: the model, and the digests at compression 1 and 2.
struct Run {
    cfg: fn() -> ModelConfig,
    digests: [u64; 2],
}

const RUNS: [Run; 2] = [
    Run { cfg: ModelConfig::tiny, digests: [0xa7a1_ff00_dfdc_1f40, 0x5493_c758_c679_f071] },
    Run { cfg: ModelConfig::small, digests: [0x4946_0679_0024_cebd, 0x956e_2f96_feb2_375f] },
];

/// One generated sample: the channel layout, its name, the timestep and
/// the digest, on a 32×64 fine grid.
struct Sample {
    vars: fn() -> VariableSet,
    name: &'static str,
    t: usize,
    digest: u64,
}

const SAMPLES: [Sample; 4] = [
    Sample { vars: VariableSet::daymet_like, name: "daymet_like", t: 0, digest: 0x7fec_579d_ebb1_43bf },
    Sample { vars: VariableSet::daymet_like, name: "daymet_like", t: 5, digest: 0xeac5_f07e_4b0e_b9cb },
    Sample { vars: VariableSet::era5_like, name: "era5_like", t: 0, digest: 0x5f19_bb6b_8fc4_4fed },
    Sample { vars: VariableSet::era5_like, name: "era5_like", t: 3, digest: 0x1f65_4c08_d38e_8b3b },
];

fn fma_host() -> bool {
    // Without FMA each multiply-add rounds twice: other bits, not wrong ones.
    if !cfg!(target_feature = "fma") {
        eprintln!("trained_bits: the committed digests are an FMA host's; skipped");
    }
    cfg!(target_feature = "fma")
}

#[test]
fn four_tiled_steps_train_the_committed_bits() {
    if !fma_host() {
        return;
    }
    let ds = DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 20, 3);
    let mut moved = Vec::new();
    for run in &RUNS {
        for (compression, want) in [1.0, 2.0].into_iter().zip(run.digests) {
            let cfg = TrainerConfig {
                steps: 4,
                warmup: 1,
                tile_spec: Some(TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 }),
                compression,
                log_every: 1,
                ..Default::default()
            };
            let model = ReslimModel::new((run.cfg)().with_channels(7, 3), 11);
            let mut trainer = Trainer::new(model, &ds, cfg);
            let report = trainer.train(&ds);
            let losses = report.losses.iter().map(|&(_, l)| l);
            let params = trainer.model.params.iter().flat_map(|(_, t)| t.data().to_vec());
            let got = fnv1a(losses.chain(params));
            if got != want {
                let d = (run.cfg)().embed_dim;
                moved.push(format!("d={d} compression {compression}: {got:#018x}, committed {want:#018x}"));
            }
        }
    }
    assert!(moved.is_empty(), "trained bits moved:\n{}", moved.join("\n"));
}

#[test]
fn samples_are_the_committed_bits() {
    if !fma_host() {
        return;
    }
    let mut moved = Vec::new();
    for case in &SAMPLES {
        let ds = DownscalingDataset::new(LatLonGrid::conus(32, 64), (case.vars)(), 4, 10, 7);
        let s = ds.sample(case.t);
        let got = fnv1a(s.input.data().iter().chain(s.target.data()).copied());
        if got != case.digest {
            moved.push(format!("{} t={}: {got:#018x}, committed {:#018x}", case.name, case.t, case.digest));
        }
    }
    assert!(moved.is_empty(), "sample bits moved:\n{}", moved.join("\n"));
}
