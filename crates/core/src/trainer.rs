//! The fault-tolerant TILES-parallel trainer.
//!
//! One training step: the sample is split into halo-padded tiles; each tile
//! runs its forward/backward on its own thread with its own gradient tape
//! (the thread stands in for the tile's GPU); the per-tile gradient maps are
//! averaged — the paper's once-per-batch all-reduce — unscaled by the
//! dynamic gradient scaler, and applied by Adam with a cosine schedule.
//! Mixed precision is emulated by rounding parameters (and each job's
//! gradients) to BF16 before use, with fp32 master weights inside Adam.
//!
//! The part of a step that is not a model — gradients in, parameters out —
//! is two parallel sweeps over flat state (`orbit2_autograd::params`): a
//! reduce that sums the surviving jobs' gradients *in job order* into one
//! arena, scales and finite-checks them, and one Adam update over the
//! moment arenas. No per-worker partial sums: the result must not depend on
//! the thread count. Every step is one batch — `ddp_replicas` samples, each
//! cut into its tiles — and ends in exactly one reduce and one update.
//!
//! ## Fault tolerance
//!
//! Every (replica, tile) job runs isolated behind `catch_unwind`: a
//! panicking or NaN-producing job cannot abort the step. A failed job is
//! retried once; if the retry fails too it is dropped from the gradient
//! all-reduce and the average is renormalized over the survivors (the
//! paper's once-per-batch all-reduce semantics, minus the dead rank). A
//! seeded [`FaultPlan`] can inject panics, NaN gradients and stragglers
//! deterministically for chaos testing; every observed fault lands in the
//! [`TrainReport`] fault log, and every skipped optimizer step is recorded
//! with its [`SkipReason`] instead of silently vanishing.
//!
//! ## Checkpointing
//!
//! With `checkpoint_every > 0` and a checkpoint path set, `train` saves a
//! crash-consistent [`TrainerCheckpoint`] (params, Adam moments, scaler
//! state, data cursor) every N steps, as raw bytes under per-section
//! checksums; [`Trainer::resume`] restores it and the continued run is
//! bit-identical to an uninterrupted one.

use crate::checkpoint::{
    load_trainer_state, save_trainer_state, validate_layout, ProgressState, TrainerCheckpoint,
};
use crate::fault::{FaultAction, FaultEvent, FaultKind, FaultPlan, SkipReason};
use crate::inference::check_tiling;
use crate::tiling::{crop, split_sample};
use orbit2_autograd::optim::cosine_schedule;
use orbit2_autograd::params::GradMap;
use orbit2_autograd::{Adam, GradAccumulator, GradScaler, Optimizer, ParamLayout, ParamStore, Tape};
use orbit2_climate::{DownscalingDataset, Normalizer, Split};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::binder::Binder;
use orbit2_model::loss::{bayesian_loss, BayesianLossCfg};
use orbit2_model::ReslimModel;
use orbit2_tensor::Tensor;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// The tiling of an untiled run: one tile, no halo.
const WHOLE: TileSpec = TileSpec { tiles_y: 1, tiles_x: 1, halo: 0 };

/// Training-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Optimizer steps to run.
    pub steps: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Linear warmup steps.
    pub warmup: u64,
    /// TILES tiling of each sample (`None` = single tile, no halo).
    pub tile_spec: Option<TileSpec>,
    /// Adaptive-compression target ratio (1.0 disables).
    pub compression: f32,
    /// Emulate BF16 mixed precision with dynamic gradient scaling.
    pub bf16: bool,
    /// Bayesian loss configuration.
    pub loss: BayesianLossCfg,
    /// Record the loss every `log_every` steps.
    pub log_every: usize,
    /// Data-parallel replicas per step: that many consecutive samples are
    /// processed concurrently (threads = simulated DDP ranks) and their
    /// gradients join the same once-per-batch average as the tiles.
    pub ddp_replicas: usize,
    /// Auto-save a full-state checkpoint every N steps during `train`
    /// (0 disables; requires [`Trainer::set_checkpoint_path`]).
    pub checkpoint_every: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            steps: 200,
            lr: 2e-3,
            warmup: 20,
            tile_spec: None,
            compression: 1.0,
            bf16: false,
            loss: BayesianLossCfg::default(),
            log_every: 10,
            ddp_replicas: 1,
            checkpoint_every: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// `(step, loss)` samples every `log_every` steps.
    pub losses: Vec<(usize, f32)>,
    /// Loss at the last step that produced one; `None` when no step did
    /// (zero steps configured, or every step skipped).
    pub final_loss: Option<f32>,
    /// Steps that produced a loss (survived isolation and, for optimizer
    /// boundaries, were not skipped).
    pub completed_steps: usize,
    /// Every skipped optimizer step with why it was skipped — a skipped
    /// batch is recorded, never silently lost.
    pub skipped: Vec<(usize, SkipReason)>,
    /// Every fault observed during the run (injected or genuine) and how
    /// recovery resolved it.
    pub faults: Vec<FaultEvent>,
}

/// Why an isolated job produced no usable gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobFailure {
    /// The job's thread panicked.
    Panicked,
    /// The job completed with NaN/non-finite loss or gradients.
    NonFinite,
}

impl JobFailure {
    /// The fault kind to log for a genuine (non-injected) failure.
    fn as_kind(self) -> FaultKind {
        match self {
            JobFailure::Panicked => FaultKind::Panic,
            JobFailure::NonFinite => FaultKind::NaNGradient,
        }
    }
}

/// A model plus its training state.
pub struct Trainer {
    /// The model being trained.
    pub model: ReslimModel,
    /// Channel normalizer fitted on the training split.
    pub normalizer: Normalizer,
    opt: Adam,
    scaler: GradScaler,
    cfg: TrainerConfig,
    /// The step's reduced gradient: scratch between steps.
    grads: GradAccumulator,
    /// Deterministic fault-injection schedule (empty unless armed via
    /// [`Trainer::set_fault_plan`] or `ORBIT2_FAULT_PLAN`).
    fault_plan: FaultPlan,
    /// Faults observed since the last report, drained by `train`.
    fault_log: Vec<FaultEvent>,
    /// Skipped optimizer steps since the last report, drained by `train`.
    skip_log: Vec<(usize, SkipReason)>,
    /// Steps taken over the trainer's lifetime (resumes count).
    global_step: usize,
    /// Position of the data cursor in the training split.
    cursor: usize,
    /// Where `train` auto-saves checkpoints (see `checkpoint_every`).
    checkpoint_path: Option<PathBuf>,
}

impl Trainer {
    /// Create a trainer, fitting the normalizer on the training split.
    ///
    /// # Panics
    /// Panics with [`check_tiling`]'s `BadTiling` message when the
    /// model cannot take the configured tiles of the dataset's coarse grid:
    /// such a tile fails every job of every step, which would otherwise
    /// read as dead ranks.
    pub fn new(model: ReslimModel, dataset: &DownscalingDataset, cfg: TrainerConfig) -> Self {
        let coarse = dataset.coarse_grid();
        if let Err(e) = check_tiling(&model, coarse.h, coarse.w, cfg.tile_spec.unwrap_or(WHOLE)) {
            panic!("{e}");
        }
        let normalizer = Normalizer::fit(dataset, 8);
        let opt = Adam::new(cfg.lr).with_weight_decay(1e-5);
        // A short growth interval exercises the scaler during small runs.
        let scaler = GradScaler::new(1024.0).with_growth_interval(200);
        let grads = GradAccumulator::new(ParamLayout::of(&model.params));
        Self {
            model,
            normalizer,
            opt,
            scaler,
            cfg,
            grads,
            fault_plan: FaultPlan::from_env().unwrap_or_default(),
            fault_log: Vec::new(),
            skip_log: Vec::new(),
            global_step: 0,
            cursor: 0,
            checkpoint_path: None,
        }
    }

    /// Arm (or disarm, with [`FaultPlan::none`]) deterministic fault
    /// injection for subsequent steps.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Set where `train` auto-saves checkpoints (see
    /// `TrainerConfig::checkpoint_every`).
    pub fn set_checkpoint_path(&mut self, path: impl Into<PathBuf>) {
        self.checkpoint_path = Some(path.into());
    }

    /// Steps taken so far (survives save/resume).
    pub fn global_step(&self) -> usize {
        self.global_step
    }

    /// Snapshot the complete training state, bit-exactly. The snapshot
    /// holds handles, not copies; drop it before the next step, or that
    /// step's first write to each buffer copies it.
    fn checkpoint(&self) -> TrainerCheckpoint {
        TrainerCheckpoint {
            model_cfg: self.model.cfg,
            params: self.model.params.clone(),
            adam: self.opt.export_state(),
            scaler: self.scaler.export_state(),
            progress: ProgressState {
                global_step: self.global_step as u64,
                data_cursor: self.cursor as u64,
            },
        }
    }

    /// Save the complete training state to `path`, atomically.
    pub fn save_checkpoint(&self, path: &Path) -> std::io::Result<()> {
        save_trainer_state(&self.checkpoint(), path)
    }

    /// Restore a trainer from a full-state checkpoint. The continued run is
    /// bit-identical to one that never stopped: parameters, Adam moments
    /// and step count, scaler state and data cursor all resume exactly. The
    /// normalizer is refitted from `dataset` (deterministic), and
    /// optimizer/scaler hyper-parameters come from `cfg`, exactly as in
    /// [`Trainer::new`].
    pub fn resume(
        dataset: &DownscalingDataset,
        cfg: TrainerConfig,
        path: &Path,
    ) -> std::io::Result<Self> {
        let bad = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let ckpt = load_trainer_state(path)?;
        validate_layout(&ckpt.params, ckpt.model_cfg)?;
        let model = ReslimModel { cfg: ckpt.model_cfg, params: ckpt.params };
        let mut trainer = Self::new(model, dataset, cfg);
        trainer.opt.import_state(&ckpt.adam).map_err(bad)?;
        trainer.scaler.import_state(&ckpt.scaler);
        trainer.global_step = ckpt.progress.global_step as usize;
        trainer.cursor = ckpt.progress.data_cursor as usize;
        Ok(trainer)
    }

    /// Run up to the configured number of steps over the dataset's training
    /// split, continuing from the current `global_step` (fresh trainers
    /// start at 0; resumed ones where the checkpoint left off).
    pub fn train(&mut self, dataset: &DownscalingDataset) -> TrainReport {
        self.train_for(dataset, usize::MAX)
    }

    /// Like [`Trainer::train`] but stop after at most `max_steps`
    /// steps this call, leaving the run resumable. The learning-rate
    /// schedule still spans the full `cfg.steps` horizon, so driving
    /// training in slices is bit-identical to one uninterrupted call.
    pub fn train_for(&mut self, dataset: &DownscalingDataset, max_steps: usize) -> TrainReport {
        let train_idx = dataset.indices(Split::Train);
        assert!(!train_idx.is_empty(), "empty training split");
        let lat_field = Tensor::from_vec(
            vec![dataset.fine_grid().h, dataset.fine_grid().w],
            dataset.fine_grid().latitude_weight_field(),
        );
        let mut losses = Vec::new();
        let mut final_loss = None;
        let mut completed_steps = 0usize;
        let mut steps_this_call = 0usize;
        let replicas = self.cfg.ddp_replicas.max(1);
        while self.global_step < self.cfg.steps && steps_this_call < max_steps {
            steps_this_call += 1;
            let step = self.global_step;
            // DDP: each replica takes the next sample in time order.
            let cursor = self.cursor;
            let batch: Vec<_> = (0..replicas)
                .map(|r| {
                    let s = dataset.sample(train_idx[(cursor + r) % train_idx.len()]);
                    (s.input, s.target)
                })
                .collect();
            self.cursor += replicas;
            let lr = cosine_schedule(step as u64, self.cfg.warmup, self.cfg.steps as u64, self.cfg.lr, self.cfg.lr * 0.05);
            self.opt.set_learning_rate(lr);
            let pairs: Vec<(&Tensor, &Tensor)> = batch.iter().map(|(i, t)| (i, t)).collect();
            if let Some(loss) = self.step_batch(&pairs, &lat_field, dataset.factor) {
                final_loss = Some(loss);
                completed_steps += 1;
                if step.is_multiple_of(self.cfg.log_every) || step + 1 == self.cfg.steps {
                    losses.push((step, loss));
                }
            }
            if self.cfg.checkpoint_every > 0 && self.global_step.is_multiple_of(self.cfg.checkpoint_every) {
                if let Some(path) = self.checkpoint_path.clone() {
                    // A failed save must not kill a multi-day run: warn and
                    // keep training on the previous (intact) checkpoint.
                    if let Err(e) = self.save_checkpoint(&path) {
                        eprintln!("orbit2: checkpoint save to {} failed: {e}", path.display());
                    }
                }
            }
        }
        TrainReport {
            losses,
            final_loss,
            completed_steps,
            skipped: std::mem::take(&mut self.skip_log),
            faults: std::mem::take(&mut self.fault_log),
        }
    }

    /// One optimizer step on a single (input, target) pair. Returns the
    /// (unscaled) loss, or `None` when the step was skipped.
    pub fn step(&mut self, input: &Tensor, target: &Tensor, lat_field: &Tensor, factor: usize) -> Option<f32> {
        self.step_batch(&[(input, target)], lat_field, factor)
    }

    /// One step: every (replica, tile) pair runs forward/backward on its
    /// own thread (its own simulated GPU) behind `catch_unwind` isolation;
    /// surviving gradients join a single average — the combined DDP x
    /// TILES all-reduce, renormalized over survivors when jobs were
    /// dropped — and the optimizer applies it once.
    ///
    /// # Panics
    /// Panics with [`check_tiling`]'s `BadTiling` message when the model
    /// cannot take the configured tiles of a sample's grid, as
    /// [`Trainer::new`] does for the dataset it is given: `train`,
    /// `train_for` and `step` may be handed another grid.
    fn step_batch(&mut self, samples: &[(&Tensor, &Tensor)], lat_field: &Tensor, factor: usize) -> Option<f32> {
        assert!(!samples.is_empty(), "empty batch");
        let spec = self.cfg.tile_spec.unwrap_or(WHOLE);
        for (input, _) in samples {
            let (h, w) = (input.shape()[1], input.shape()[2]);
            if let Err(e) = check_tiling(&self.model, h, w, spec) {
                panic!("{e}");
            }
        }
        let step = self.global_step;
        self.global_step += 1;
        let survivors = self.run_jobs(step, samples, lat_field, factor);
        if survivors.is_empty() {
            self.skip_log.push((step, SkipReason::AllJobsFailed));
            return None;
        }
        let mean_loss = survivors.iter().map(|(l, _)| *l).sum::<f32>() / survivors.len() as f32;
        let maps: Vec<GradMap> = survivors.into_iter().map(|(_, g)| g).collect();
        self.apply_gradients(step, &maps).then_some(mean_loss)
    }

    /// Forward/backward of every (replica, tile) job of one step,
    /// isolated and retried; returns the survivors' `(loss, gradients)` in
    /// job order. Every handle onto the parameters taken here (the BF16
    /// copy, the tapes' leaves) is gone when this returns, so the update
    /// that follows writes the masters in place.
    fn run_jobs(
        &mut self,
        step: usize,
        samples: &[(&Tensor, &Tensor)],
        lat_field: &Tensor,
        factor: usize,
    ) -> Vec<(f32, GradMap)> {
        // Emulated BF16: the forward/backward sees rounded parameters; Adam
        // keeps fp32 masters in `self.model.params`.
        let rounded: Option<ParamStore> = self.cfg.bf16.then(|| {
            let mut p = self.model.params.clone();
            for (_, t) in p.iter_mut() {
                *t = t.to_bf16();
            }
            p
        });
        let step_params = rounded.as_ref().unwrap_or(&self.model.params);

        let spec = self.cfg.tile_spec.unwrap_or(WHOLE);
        // Flatten (replica, tile) into one job list.
        let jobs: Vec<crate::tiling::SampleTile> = samples
            .iter()
            .flat_map(|(input, target)| {
                let norm_in = self.normalizer.normalize_input(input);
                let norm_tgt = self.normalizer.normalize_target(target);
                split_sample(&norm_in, Some(&norm_tgt), spec, factor)
            })
            .collect();
        // Latitude weights are cropped like a one-channel target.
        let lat_field = lat_field.reshape(vec![1, lat_field.shape()[0], lat_field.shape()[1]]);
        let loss_scale = if self.cfg.bf16 { self.scaler.scale() } else { 1.0 };
        let model = &self.model;
        let loss_cfg = self.cfg.loss;
        let compression = self.cfg.compression;
        let bf16 = self.cfg.bf16;

        // One isolated attempt at one job. Injected faults fire inside the
        // unwind boundary, exactly where a real rank would fail.
        let run_job = |tile: &crate::tiling::SampleTile,
                       fault: Option<FaultKind>|
         -> Result<(f32, GradMap), JobFailure> {
            let compute = || {
                if let Some(FaultKind::Straggler(ms)) = fault {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                if matches!(fault, Some(FaultKind::Panic)) {
                    panic!("injected rank failure");
                }
                let tape = Tape::new();
                let binder = Binder::new(&tape, step_params);
                let (pred, _) = model.forward(&binder, &tile.input, compression);
                let target_tile = tile.target.as_ref().expect("training tile needs target");
                let sg = tile.geom.scaled(factor);
                let weights = crop(&lat_field, &sg).into_reshape(vec![sg.padded_h(), sg.padded_w()]);
                let loss = bayesian_loss(pred, target_tile, &weights, loss_cfg);
                let scaled = loss.scale(loss_scale);
                let grads = tape.backward(scaled);
                let mut gm = binder.grad_map(&grads);
                if bf16 {
                    for g in gm.values_mut() {
                        *g = g.to_bf16();
                    }
                }
                if matches!(fault, Some(FaultKind::NaNGradient)) {
                    for g in gm.values_mut() {
                        g.data_mut()[0] = f32::NAN;
                    }
                }
                (loss.value().item(), gm)
            };
            match catch_unwind(AssertUnwindSafe(compute)) {
                Err(_) => Err(JobFailure::Panicked),
                Ok((loss, gm)) => {
                    // Per-job health check. In BF16 mode Inf/NaN gradients
                    // are the scaler's business (overflow backs the scale
                    // off globally), so only injected poison fails the job;
                    // in fp32 mode any non-finite output is a dead rank.
                    let injected_nan = matches!(fault, Some(FaultKind::NaNGradient));
                    let non_finite =
                        !loss.is_finite() || gm.values().any(|g| !g.all_finite());
                    if injected_nan || (!bf16 && non_finite) {
                        Err(JobFailure::NonFinite)
                    } else {
                        Ok((loss, gm))
                    }
                }
            }
        };

        // First pass: every job in parallel, each isolated.
        let plan = self.fault_plan.clone();
        let faults: Vec<Option<FaultKind>> =
            (0..jobs.len()).map(|j| plan.lookup(step, j)).collect();
        let mut outcomes: Vec<Result<(f32, GradMap), JobFailure>> = jobs
            .par_iter()
            .enumerate()
            .map(|(j, tile)| run_job(tile, faults[j]))
            .collect();

        // Elastic recovery: retry each failed job once. Transient faults
        // (the default) retry clean — the rescheduled rank is healthy;
        // persistent plans re-apply the fault, modelling a dead node.
        let mut events = Vec::new();
        for (j, outcome) in outcomes.iter_mut().enumerate() {
            let fault = faults[j];
            match outcome {
                Ok(_) => {
                    if let Some(kind) = fault {
                        events.push(FaultEvent {
                            step,
                            job: j,
                            kind,
                            action: FaultAction::Completed,
                            injected: true,
                        });
                    }
                }
                Err(failure) => {
                    let kind = fault.unwrap_or_else(|| failure.as_kind());
                    let retry_fault = if plan.is_persistent() { fault } else { None };
                    let retried = run_job(&jobs[j], retry_fault);
                    let action = if retried.is_ok() { FaultAction::Retried } else { FaultAction::Dropped };
                    events.push(FaultEvent { step, job: j, kind, action, injected: fault.is_some() });
                    *outcome = retried;
                }
            }
        }
        self.fault_log.extend(events);
        outcomes.into_iter().flatten().collect()
    }

    /// The DDP x TILES gradient all-reduce over the surviving jobs and the
    /// optimizer step: one reduce sweep (sum in job order, mean over the
    /// jobs, unscale, finite check) and, only if every element came out
    /// finite, one Adam sweep. Dropping a job renormalizes the average over
    /// those that remain. Returns false when the step was skipped (and
    /// logged); a skipped step leaves parameters and optimizer state
    /// untouched.
    fn apply_gradients(&mut self, step: usize, jobs: &[GradMap]) -> bool {
        let unscale = self.cfg.bf16.then(|| 1.0 / self.scaler.scale());
        let finite = self.grads.finish(jobs, unscale);
        if self.cfg.bf16 {
            self.scaler.record(finite);
        }
        if !finite {
            let reason =
                if self.cfg.bf16 { SkipReason::ScalerOverflow } else { SkipReason::NonFiniteAverage };
            self.skip_log.push((step, reason));
            return false;
        }
        self.opt.step_accumulated(&mut self.model.params, &self.grads);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_climate::{LatLonGrid, VariableSet};
    use orbit2_model::ModelConfig;

    fn dataset() -> DownscalingDataset {
        DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 24, 5)
    }

    fn tiny_model() -> ReslimModel {
        ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 1)
    }

    fn quick_cfg() -> TrainerConfig {
        TrainerConfig { steps: 12, lr: 1e-3, warmup: 2, log_every: 4, ..Default::default() }
    }

    #[test]
    #[should_panic(expected = "cannot be split into 3x2 tiles with halo 1")]
    fn refuses_a_tiling_the_model_cannot_take() {
        // The 4x8 coarse grid's three tile rows have cores of 1, 1 and 2
        // pixels: padded, two of them are 3 high, which the patch size 2
        // does not divide. Every job would fail, every step be skipped.
        let cfg = TrainerConfig { tile_spec: Some(TileSpec { tiles_y: 3, tiles_x: 2, halo: 1 }), ..quick_cfg() };
        let _ = Trainer::new(tiny_model(), &dataset(), cfg);
    }

    #[test]
    #[should_panic(expected = "cannot be split into 2x2 tiles with halo 1")]
    fn refuses_a_tiling_the_model_cannot_take_on_a_later_grid() {
        // 2x2 tiles with halo 1 fit the 4x8 coarse grid `new` sees, but not
        // the 6x8 one `train` is handed: its 3-pixel tile cores pad to 5.
        let cfg = TrainerConfig { tile_spec: Some(TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 }), ..quick_cfg() };
        let mut t = Trainer::new(tiny_model(), &dataset(), cfg);
        let other = DownscalingDataset::new(LatLonGrid::conus(24, 32), VariableSet::daymet_like(), 4, 24, 5);
        t.train(&other);
    }

    #[test]
    fn loss_decreases_over_training() {
        let ds = dataset();
        let mut t = Trainer::new(tiny_model(), &ds, TrainerConfig { steps: 30, ..quick_cfg() });
        let report = t.train(&ds);
        let first = report.losses.first().unwrap().1;
        let last = report.final_loss.unwrap();
        assert!(last < first * 0.9, "loss should drop: {first} -> {last}");
        assert!(last.is_finite());
        assert_eq!(report.completed_steps, 30);
        assert!(report.faults.is_empty(), "no fault plan armed: {:?}", report.faults);
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn tiled_training_matches_untiled_loss_trend() {
        let ds = dataset();
        let spec = TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 };
        let mut t = Trainer::new(
            tiny_model(),
            &ds,
            TrainerConfig { tile_spec: Some(spec), steps: 20, ..quick_cfg() },
        );
        let report = t.train(&ds);
        let last = report.final_loss.unwrap();
        assert!(last.is_finite());
        let first = report.losses.first().unwrap().1;
        assert!(last < first, "tiled training must also learn");
    }

    #[test]
    fn bf16_training_learns_with_scaler() {
        let ds = dataset();
        let mut t = Trainer::new(
            tiny_model(),
            &ds,
            TrainerConfig { bf16: true, steps: 20, ..quick_cfg() },
        );
        let report = t.train(&ds);
        let last = report.final_loss.unwrap();
        assert!(last.is_finite());
        let first = report.losses.first().unwrap().1;
        assert!(last < first, "bf16 training must learn: {first} -> {last}");
    }

    #[test]
    fn compression_training_runs() {
        let ds = dataset();
        let mut t = Trainer::new(
            tiny_model(),
            &ds,
            TrainerConfig { compression: 2.0, steps: 8, ..quick_cfg() },
        );
        let report = t.train(&ds);
        assert!(report.final_loss.unwrap().is_finite());
    }

    #[test]
    fn ddp_replicas_training_learns() {
        let ds = dataset();
        let mut t = Trainer::new(
            tiny_model(),
            &ds,
            TrainerConfig { ddp_replicas: 2, steps: 15, ..quick_cfg() },
        );
        let report = t.train(&ds);
        let first = report.losses.first().unwrap().1;
        let last = report.final_loss.unwrap();
        assert!(last < first, "DDP training must learn: {first} -> {last}");
    }

    #[test]
    fn zero_step_run_reports_none_not_nan() {
        let ds = dataset();
        let mut t = Trainer::new(tiny_model(), &ds, TrainerConfig { steps: 0, ..quick_cfg() });
        let report = t.train(&ds);
        assert_eq!(report.final_loss, None);
        assert_eq!(report.completed_steps, 0);
        assert!(report.losses.is_empty());
    }

    #[test]
    fn ddp_batch_equals_manual_average_direction() {
        // A 2-replica step must use the average of the two per-sample
        // gradients: verify the resulting update differs from either
        // single-sample update but matches the two-sample average run.
        let ds = dataset();
        let lat = Tensor::from_vec(
            vec![ds.fine_grid().h, ds.fine_grid().w],
            ds.fine_grid().latitude_weight_field(),
        );
        let s0 = ds.sample(0);
        let s1 = ds.sample(1);
        let run = |pairs: Vec<(&Tensor, &Tensor)>| {
            let mut t = Trainer::new(tiny_model(), &ds, TrainerConfig { steps: 0, ..quick_cfg() });
            t.step_batch(&pairs, &lat, ds.factor);
            t.model.params.get("xattn.wq").clone()
        };
        let batched = run(vec![(&s0.input, &s0.target), (&s1.input, &s1.target)]);
        let only0 = run(vec![(&s0.input, &s0.target)]);
        let batched2 = run(vec![(&s0.input, &s0.target), (&s1.input, &s1.target)]);
        assert_eq!(batched.data(), batched2.data(), "batched step must be deterministic");
        assert!(batched.max_abs_diff(&only0) > 0.0, "second replica must influence the update");
    }

    #[test]
    fn training_reuses_pooled_buffers_across_steps() {
        // The steady-state claim of the buffer-pool layer: after the first
        // step warms the pool, later steps serve same-shape allocations
        // (normalization, gradient averaging, optimizer temporaries) from
        // recycled buffers instead of the system allocator.
        let ds = dataset();
        let spec = TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 };
        let mut t = Trainer::new(
            tiny_model(),
            &ds,
            TrainerConfig { tile_spec: Some(spec), steps: 4, ..quick_cfg() },
        );
        orbit2_tensor::pool::clear();
        orbit2_tensor::pool::reset_stats();
        t.train(&ds);
        let stats = orbit2_tensor::pool::stats();
        assert!(
            stats.reuses > 0,
            "multi-step training must recycle buffers, stats: {stats:?}"
        );
    }

    #[test]
    fn update_writes_the_masters_in_place() {
        // No handle onto the parameters may outlive the jobs: a live one
        // makes every `data_mut` of the update a copy-on-write fault — a
        // full copy of the model per step. The pool's `copies` counter is
        // per thread and the jobs (4 tiles) run on the workers, so other
        // tests cannot disturb the reading taken here.
        let ds = dataset();
        let spec = TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 };
        let mut t = Trainer::new(
            tiny_model(),
            &ds,
            TrainerConfig { tile_spec: Some(spec), steps: 0, ..quick_cfg() },
        );
        let lat = Tensor::from_vec(
            vec![ds.fine_grid().h, ds.fine_grid().w],
            ds.fine_grid().latitude_weight_field(),
        );
        let storage = |t: &Trainer| {
            t.model.params.iter().map(|(_, p)| p.data().as_ptr()).collect::<Vec<_>>()
        };
        let at_start = storage(&t);
        for step in 0..2 {
            let s = ds.sample(step);
            let survivors = t.run_jobs(step, &[(&s.input, &s.target)], &lat, ds.factor);
            let maps: Vec<GradMap> = survivors.into_iter().map(|(_, g)| g).collect();
            assert_eq!(maps.len(), 4);
            let before = orbit2_tensor::pool::stats().copies;
            assert!(t.apply_gradients(step, &maps), "clean step skipped");
            let copied = orbit2_tensor::pool::stats().copies - before;
            assert_eq!(copied, 0, "step {step}: the update copied {copied} buffers");
        }
        assert_eq!(storage(&t), at_start, "a parameter's storage was re-allocated");
        // And through the public entry point.
        let s = ds.sample(2);
        t.step(&s.input, &s.target, &lat, ds.factor).expect("a loss");
        assert_eq!(storage(&t), at_start, "a parameter's storage was re-allocated by `step`");
    }

    #[test]
    fn gradient_averaging_equals_single_tile_for_uniform_split() {
        // With 1 tile, average_grad_maps over one map is the identity;
        // covered implicitly, but check a step mutates parameters.
        let ds = dataset();
        let model = tiny_model();
        let before = model.params.get("xattn.wq").clone();
        let mut t = Trainer::new(model, &ds, TrainerConfig { steps: 1, ..quick_cfg() });
        t.train(&ds);
        let after = t.model.params.get("xattn.wq");
        assert!(before.max_abs_diff(after) > 0.0, "parameters must move");
    }

    #[test]
    fn retried_transient_panic_matches_clean_run_exactly() {
        // A transient injected panic is retried clean, so the step's update
        // must be bit-identical to a run with no fault at all.
        let ds = dataset();
        let lat = Tensor::from_vec(
            vec![ds.fine_grid().h, ds.fine_grid().w],
            ds.fine_grid().latitude_weight_field(),
        );
        let s0 = ds.sample(0);
        let s1 = ds.sample(1);
        let run = |plan: FaultPlan| {
            let mut t = Trainer::new(tiny_model(), &ds, TrainerConfig { steps: 0, ..quick_cfg() });
            t.set_fault_plan(plan);
            t.step_batch(&[(&s0.input, &s0.target), (&s1.input, &s1.target)], &lat, ds.factor);
            t.model.params.get("xattn.wq").clone()
        };
        let clean = run(FaultPlan::none());
        let faulted = run(FaultPlan::none().with_event(0, 1, FaultKind::Panic));
        assert_eq!(clean.data(), faulted.data(), "retried job must reproduce the clean gradient");
    }

    #[test]
    fn dropped_job_renormalizes_average_over_survivors() {
        // A persistent fault kills job 1 (replica 1) outright: the 2-sample
        // batch must then produce exactly the 1-sample update.
        let ds = dataset();
        let lat = Tensor::from_vec(
            vec![ds.fine_grid().h, ds.fine_grid().w],
            ds.fine_grid().latitude_weight_field(),
        );
        let s0 = ds.sample(0);
        let s1 = ds.sample(1);
        let run = |pairs: Vec<(&Tensor, &Tensor)>, plan: FaultPlan| {
            let mut t = Trainer::new(tiny_model(), &ds, TrainerConfig { steps: 0, ..quick_cfg() });
            t.set_fault_plan(plan);
            t.step_batch(&pairs, &lat, ds.factor);
            t.model.params.get("xattn.wq").clone()
        };
        let dead_rank = FaultPlan::none().with_event(0, 1, FaultKind::Panic).with_persistent();
        let dropped = run(vec![(&s0.input, &s0.target), (&s1.input, &s1.target)], dead_rank);
        let solo = run(vec![(&s0.input, &s0.target)], FaultPlan::none());
        assert_eq!(
            dropped.data(),
            solo.data(),
            "average must renormalize over the surviving job"
        );
    }
}
