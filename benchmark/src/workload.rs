//! The four workloads: what each one runs and why it was chosen.
//!
//! All four use `VariableSet::daymet_like()` (7 → 3 channels), refinement
//! factor 4, compression 1.0 and f32 weights and activations. `--seed`
//! seeds the dataset and the model initialisation; the program under test
//! only ever sees the generated inputs.

use orbit2_climate::{DownscalingDataset, LatLonGrid, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel};

/// Refinement factor of every workload.
pub const FACTOR: usize = 4;
/// The TILES split of `train-step`: 2×2 tiles, halo 2.
pub const TILES_2X2: TileSpec = TileSpec {
    tiles_y: 2,
    tiles_x: 2,
    halo: 2,
};
/// The TILES split of `tiles-field`: 1×2 tiles, halo 2.
pub const TILES_1X2: TileSpec = TileSpec {
    tiles_y: 1,
    tiles_x: 2,
    halo: 2,
};

/// Which scene runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed-loop clients against `Server` + `tcp::serve` over loopback.
    Serve,
    /// One caller looping `downscale_with` on a prepared session.
    Tiles,
    /// `Trainer::train_for(ds, 1)` in a loop, with periodic checkpoints.
    Train,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why this workload is in the benchmark.
    pub why: &'static str,
    /// The scene that runs it.
    pub kind: Kind,
    /// Model size (channels are set by [`Spec::model`]).
    pub model_cfg: fn() -> ModelConfig,
    /// Fine (output) grid, height × width; the input is a quarter of each.
    pub fine: (usize, usize),
    /// TILES split, or `None` for whole-sample jobs.
    pub tile: Option<TileSpec>,
    /// Timesteps in the dataset (split by time into train/val/test).
    pub samples: usize,
    /// Distinct inputs generated during set-up and cycled by the ops (the
    /// trainer draws its own from the training split instead).
    pub inputs: usize,
    /// Samples the normalizer is fitted on (the trainer always uses 8).
    pub fit_samples: usize,
    /// Serving only: client threads, each with its own connection and one
    /// request outstanding. Two or more run in lockstep: they release
    /// their requests together each round.
    pub clients: usize,
    /// Untimed ops that end set-up: they fill the buffer pools, the page
    /// cache of the weights and every lazily built structure.
    pub warmups: usize,
}

/// The workloads, in `BENCHMARK.json` order.
pub const ALL: [Spec; 4] = [
    Spec {
        name: "serve-wire",
        why: "tiny model, 2 MB of JSON per round trip: the one workload where socket, parse and encode are a large share",
        kind: Kind::Serve,
        model_cfg: ModelConfig::tiny,
        fine: (128, 256),
        tile: None,
        samples: 16,
        inputs: 4,
        fit_samples: 4,
        // One client: with two free-running clients on two cores, four
        // runnable threads (two clients' JSON, two forwards) make the
        // scheduler part of the result; ten runs spread 8-9% apart on
        // `ops_per_s` where one client spreads 3%.
        clients: 1,
        warmups: 10,
    },
    Spec {
        name: "serve-weights",
        why: "126M model at 32 tokens: every linear streams 0.5 GB of f32 weights, wire under 3%, so GEMM and batching changes show and wire changes must not",
        kind: Kind::Serve,
        model_cfg: ModelConfig::paper_126m,
        fine: (32, 64),
        tile: None,
        samples: 16,
        inputs: 4,
        fit_samples: 4,
        // Two clients in lockstep. Free-running, two closed-loop clients
        // settle into one of two self-sustaining regimes — in phase (every
        // forward co-batched, M=64) or out of phase (two M=32 forwards
        // contending) — and flip between them: op_p50_ms read 257 and 328
        // ms in two sets of ten runs. Lockstep pins the co-batched regime
        // the workload is for.
        clients: 2,
        warmups: 4,
    },
    Spec {
        name: "tiles-field",
        why: "9.5M model, 4 TILES tiles of 612 tokens, no server: attention score tensors, halo split and stitch dominate; cache-resident GEMMs",
        kind: Kind::Tiles,
        model_cfg: ModelConfig::paper_9_5m,
        fine: (256, 512),
        tile: Some(TILES_1X2),
        samples: 16,
        inputs: 2,
        fit_samples: 2,
        clients: 0,
        warmups: 2,
    },
    Spec {
        name: "train-step",
        why: "the same model and tensor layers on the tape: backward GEMMs, gradient reduce, Adam and checkpoint saves, which no bench timed before",
        kind: Kind::Train,
        model_cfg: ModelConfig::paper_9_5m,
        fine: (64, 128),
        tile: Some(TILES_2X2),
        samples: 32,
        inputs: 0,
        fit_samples: 8,
        clients: 0,
        warmups: 4,
    },
];

impl Spec {
    /// Look a workload up by name.
    pub fn named(name: &str) -> Option<&'static Spec> {
        ALL.iter().find(|s| s.name == name)
    }

    /// The workload's dataset for `seed`.
    pub fn dataset(&self, seed: u64) -> DownscalingDataset {
        DownscalingDataset::new(
            LatLonGrid::conus(self.fine.0, self.fine.1),
            VariableSet::daymet_like(),
            FACTOR,
            self.samples,
            seed,
        )
    }

    /// A freshly initialised model for `seed`.
    pub fn model(&self, seed: u64) -> ReslimModel {
        ReslimModel::new((self.model_cfg)().with_channels(7, 3), seed)
    }
}

/// A second handle on `model`'s weights. Tensors are copy-on-write, so this
/// shares the parameter buffers instead of doubling them.
pub fn twin(model: &ReslimModel) -> ReslimModel {
    ReslimModel {
        cfg: model.cfg,
        params: model.params.clone(),
    }
}
