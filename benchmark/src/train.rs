//! `train-step`: the same model and tensor layers on the tape.
//!
//! An op is one `Trainer::train_for(ds, 1)` call: sample generation plus
//! one `step_batch` (4 TILES jobs of forward, loss, backward, then the
//! gradient reduce and Adam). In the untraced run every `checkpoint_every`-th
//! op is followed, inside the same call, by a full-state checkpoint save,
//! and the timed window ends on such a boundary, so `ops_per_s` pays for
//! whole checkpoint cycles while `op_p50_ms` stays a plain step.
//!
//! The traced op is that step re-assembled from the public functions the
//! trainer itself calls, each in a span. It starts from the same seed, so
//! its losses must equal the trainer's bit for bit; the run checks that.

use crate::infer::{self, FORWARD};
use crate::report::Metrics;
use crate::scene::{Mode, Scene, SetupTimings, Window};
use crate::timed_exec::{ShapeTally, TimedExec};
use crate::trace::{self, Tracer};
use crate::workload::{Spec, FACTOR};
use orbit2::tiling::{split_sample, SampleTile};
use orbit2::{load_trainer_state, Trainer, TrainerConfig};
use orbit2_autograd::optim::cosine_schedule;
use orbit2_autograd::params::{average_grad_maps, GradMap};
use orbit2_autograd::{Adam, Optimizer, Tape};
use orbit2_climate::{DownscalingDataset, Normalizer, Split};
use orbit2_model::{bayesian_loss, Binder, ReslimModel};
use orbit2_tensor::Tensor;
use rayon::prelude::*;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Horizon of the cosine learning-rate schedule. Fixed, so that the
/// learning rate at step k does not depend on how long a run lasts.
const SCHEDULE_STEPS: usize = 4096;

/// Trainer steps the untraced run re-derives to check the trainer's losses.
const REFERENCE_STEPS: usize = 2;

const OP: &str = "op";
const SAMPLE: &str = "climate.sample";
const STEP_BATCH: &str = "trainer.step_batch";
const JOB: &str = "trainer.job";
const LOSS: &str = "model.loss";
const BACKWARD: &str = "autograd.backward";
const GRAD_MAP: &str = "autograd.grad_map";
const REDUCE: &str = "autograd.reduce";
const ADAM: &str = "autograd.adam";

fn trainer_config(spec: &Spec, checkpoint_every: usize) -> TrainerConfig {
    TrainerConfig {
        steps: SCHEDULE_STEPS,
        tile_spec: spec.tile,
        ddp_replicas: 1,
        bf16: false,
        checkpoint_every,
        log_every: 1,
        ..TrainerConfig::default()
    }
}

/// `core::trainer`'s private `crop_weights`: latitude weights for a padded
/// target tile, a clamped crop of the fine-grid weight field.
fn crop_weights(lat_field: &Tensor, tile: &SampleTile, factor: usize) -> Tensor {
    let (fh, fw) = (lat_field.shape()[0] as i64, lat_field.shape()[1] as i64);
    let g = tile.geom.scaled(factor);
    let (ph, pw) = (g.padded_h(), g.padded_w());
    let mut out = Vec::with_capacity(ph * pw);
    for y in 0..ph as i64 {
        let gy = (g.core_y0 as i64 + y - g.halo as i64).clamp(0, fh - 1);
        for x in 0..pw as i64 {
            let gx = (g.core_x0 as i64 + x - g.halo as i64).clamp(0, fw - 1);
            out.push(lat_field.data()[(gy * fw + gx) as usize]);
        }
    }
    Tensor::from_vec(vec![ph, pw], out)
}

/// One training step, `Trainer::train_for(ds, 1)` re-assembled from public
/// functions: `DownscalingDataset::sample`, `split_sample`, `Tape::new`,
/// `Binder::new`, `ReslimModel::forward`, `bayesian_loss`,
/// `Tape::backward`, `Binder::grad_map`, `average_grad_maps`,
/// `Optimizer::step`. Owns the state the trainer keeps private.
pub struct TapedTrainer {
    model: ReslimModel,
    normalizer: Normalizer,
    opt: Adam,
    cfg: TrainerConfig,
    lat_field: Tensor,
    train_idx: Vec<usize>,
    step: usize,
    /// Shape tally of every forward run so far.
    pub tallies: Vec<ShapeTally>,
    /// Tape length of every job run so far.
    pub tape_nodes: Vec<f64>,
}

impl TapedTrainer {
    /// The state `Trainer::new` builds.
    pub fn new(model: ReslimModel, ds: &DownscalingDataset, cfg: TrainerConfig) -> Self {
        let grid = ds.fine_grid();
        Self {
            model,
            normalizer: Normalizer::fit(ds, 8),
            opt: Adam::new(cfg.lr).with_weight_decay(1e-5),
            cfg,
            lat_field: Tensor::from_vec(vec![grid.h, grid.w], grid.latitude_weight_field()),
            train_idx: ds.indices(Split::Train),
            step: 0,
            tallies: Vec::new(),
            tape_nodes: Vec::new(),
        }
    }

    /// One step, every stage in a span under a root `op` span. Returns the
    /// mean tile loss, as `TrainReport::final_loss` would.
    pub fn step(&mut self, ds: &DownscalingDataset, tracer: &Tracer, op: u32) -> f32 {
        let root = tracer.open(OP, 0, op);
        let sample = tracer.within(SAMPLE, root.id(), op, || {
            ds.sample(self.train_idx[self.step % self.train_idx.len()])
        });
        let cfg = self.cfg;
        let lr = cosine_schedule(
            self.step as u64,
            cfg.warmup,
            cfg.steps as u64,
            cfg.lr,
            cfg.lr * 0.05,
        );
        self.opt.set_learning_rate(lr);
        self.step += 1;

        let batch = tracer.open(STEP_BATCH, root.id(), op);
        let params = self.model.params.clone();
        let spec = cfg.tile_spec.expect("train-step is tiled");
        let jobs = tracer.within(infer::SPLIT, batch.id(), op, || {
            let norm_in = self.normalizer.normalize_input(&sample.input);
            let norm_tgt = self.normalizer.normalize_target(&sample.target);
            split_sample(&norm_in, Some(&norm_tgt), spec, FACTOR)
        });
        let (model, lat_field) = (&self.model, &self.lat_field);
        let outcomes: Vec<(f32, GradMap, ShapeTally, usize)> = jobs
            .par_iter()
            .map(|tile| {
                let job = tracer.open(JOB, batch.id(), op);
                let tape = Tape::new();
                let binder = Binder::new(&tape, &params);
                let (pred, tally) = {
                    let forward = tracer.open(FORWARD, job.id(), op);
                    let timed = TimedExec::new(&binder, tracer, forward.id(), op);
                    (
                        model.forward(&timed, &tile.input, cfg.compression).0,
                        timed.tally(),
                    )
                };
                let loss = tracer.within(LOSS, job.id(), op, || {
                    let target = tile.target.as_ref().expect("training tile has a target");
                    bayesian_loss(
                        pred,
                        target,
                        &crop_weights(lat_field, tile, FACTOR),
                        cfg.loss,
                    )
                });
                // The trainer scales the loss by the gradient scaler's
                // factor, 1.0 without bf16; the node is kept so that the
                // tape is the trainer's tape.
                let grads =
                    tracer.within(BACKWARD, job.id(), op, || tape.backward(loss.scale(1.0)));
                let gm = tracer.within(GRAD_MAP, job.id(), op, || {
                    let gm = binder.grad_map(&grads);
                    assert!(gm.values().all(Tensor::all_finite), "non-finite gradient");
                    gm
                });
                (loss.value().item(), gm, tally, tape.len())
            })
            .collect();

        let mean_loss = outcomes.iter().map(|o| o.0).sum::<f32>() / outcomes.len() as f32;
        let mut maps = Vec::with_capacity(outcomes.len());
        for (_, gm, tally, nodes) in outcomes {
            maps.push(gm);
            self.tallies.push(tally);
            self.tape_nodes.push(nodes as f64);
        }
        let total = tracer.within(REDUCE, batch.id(), op, || {
            // Tiles first, then the (single-entry) accumulation window,
            // exactly as `step_batch` does.
            let total = average_grad_maps(&[average_grad_maps(&maps)]);
            assert!(
                total.values().all(Tensor::all_finite),
                "non-finite averaged gradient"
            );
            total
        });
        tracer.within(ADAM, batch.id(), op, || {
            self.opt.step(&mut self.model.params, &total)
        });
        mean_loss
    }
}

/// The trainer under test and what the windows learned from it.
pub struct TrainScene {
    spec: Spec,
    seed: u64,
    ds: DownscalingDataset,
    trainer: Trainer,
    checkpoint_every: usize,
    ckpt_path: PathBuf,
    /// Loss of every trainer step so far, warm-ups included.
    losses: Vec<f32>,
    taped: Option<TapedTrainer>,
    timings: SetupTimings,
    next_op: u32,
}

impl TrainScene {
    fn trainer_step(&mut self) -> Option<f32> {
        let loss = self.trainer.train_for(&self.ds, 1).final_loss?;
        self.losses.push(loss);
        Some(loss)
    }
}

impl Scene for TrainScene {
    const ROOT: &'static str = OP;

    fn setup(spec: &Spec, mode: &Mode) -> Self {
        let mut timings = SetupTimings::default();
        let ds = spec.dataset(mode.seed);
        // One checkpoint cycle is about one window: 2 steps per second of
        // window on the reference box, and never inside the warm-up.
        let checkpoint_every = if mode.traced {
            0
        } else {
            ((mode.seconds * 2.0).round() as usize).max(spec.warmups + 2)
        };
        let model = spec.model(mode.seed);
        let mut trainer =
            timings.time_fit(|| Trainer::new(model, &ds, trainer_config(spec, checkpoint_every)));
        let ckpt_path = mode.out_dir.join(format!("{}.ckpt", spec.name));
        trainer.set_checkpoint_path(&ckpt_path);
        let mut scene = Self {
            spec: *spec,
            seed: mode.seed,
            ds,
            trainer,
            checkpoint_every,
            ckpt_path,
            losses: Vec::new(),
            taped: None,
            timings,
            next_op: 1,
        };
        for _ in 0..spec.warmups {
            scene.trainer_step().expect("warm-up step produced no loss");
        }
        scene
    }

    fn timings(&self) -> &SetupTimings {
        &self.timings
    }

    fn window(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Window {
        let mut w = Window {
            correct: true,
            ..Window::default()
        };
        let Some(tracer) = tracer else {
            let start = Instant::now();
            loop {
                w.attempted += 1;
                let t0 = Instant::now();
                match self.trainer_step() {
                    Some(loss) => {
                        w.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        w.correct &= loss.is_finite();
                    }
                    None => w.failed += 1,
                }
                let elapsed = start.elapsed().as_secs_f64();
                let at_boundary = match self.checkpoint_every {
                    0 => true,
                    every => self.trainer.global_step().is_multiple_of(every),
                };
                // With checkpoints on, stop only where a save has just
                // happened, and once at least half the window has passed.
                let enough = if self.checkpoint_every == 0 {
                    seconds
                } else {
                    seconds / 2.0
                };
                if at_boundary && elapsed >= enough {
                    break;
                }
            }
            w.wall_s = start.elapsed().as_secs_f64();
            return w;
        };

        if self.taped.is_none() {
            let cfg = trainer_config(&self.spec, 0);
            let mut taped = TapedTrainer::new(self.spec.model(self.seed), &self.ds, cfg);
            let scratch = Tracer::new();
            for i in 0..self.spec.warmups {
                let loss = taped.step(&self.ds, &scratch, 0);
                w.correct &= loss.to_bits() == self.losses[i].to_bits();
            }
            taped.tallies.clear();
            taped.tape_nodes.clear();
            self.taped = Some(taped);
        }
        let taped = self.taped.as_mut().expect("just built");
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            w.attempted += 1;
            let t0 = Instant::now();
            let loss = taped.step(&self.ds, tracer, self.next_op);
            w.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.next_op += 1;
            // Same seed, same data order, same arithmetic: the re-assembled
            // step must reproduce the trainer's loss at the same step.
            if let Some(want) = self.losses.get(taped.step - 1) {
                w.correct &= loss.to_bits() == want.to_bits();
            }
            w.correct &= loss.is_finite();
        }
        w.wall_s = start.elapsed().as_secs_f64();
        w
    }

    fn probes(&mut self, tracer: &Tracer, m: &mut Metrics, nproc: usize) {
        const MS: f64 = 1e-6;
        let spans = tracer.snapshot();
        let taped = self.taped.as_ref().expect("the traced window ran");
        infer::model_metrics(m, &spans, &taped.tallies);
        m.put_sample("climate.sample_ms", &trace::durations(&spans, SAMPLE), MS);
        m.put_sample(
            "core.split_us",
            &trace::durations(&spans, infer::SPLIT),
            1e-3,
        );
        m.put_sample("model.loss_ms", &trace::durations(&spans, LOSS), MS);
        m.put_sample(
            "autograd.backward_ms",
            &trace::durations(&spans, BACKWARD),
            MS,
        );
        m.put_sample(
            "autograd.grad_map_ms",
            &trace::durations(&spans, GRAD_MAP),
            MS,
        );
        m.put_sample("autograd.reduce_ms", &trace::durations(&spans, REDUCE), MS);
        m.put_sample("autograd.adam_ms", &trace::durations(&spans, ADAM), MS);
        m.put_sample("autograd.tape_nodes", &taped.tape_nodes, 1.0);
        m.put_sample("trainer.job_ms", &trace::durations(&spans, JOB), MS);

        let mut batches: Vec<_> = spans.iter().filter(|s| s.name == STEP_BATCH).collect();
        batches.sort_by_key(|s| s.id);
        let batch_ns: Vec<f64> = batches.iter().map(|s| s.dur_ns() as f64).collect();
        m.put_sample("trainer.step_batch_ms", &batch_ns, MS);
        let jobs = trace::child_sums(&spans, STEP_BATCH, JOB);
        let reduce = trace::child_sums(&spans, STEP_BATCH, REDUCE);
        let adam = trace::child_sums(&spans, STEP_BATCH, ADAM);
        let tiles = self.spec.tile.map_or(1, |t| t.count()) as f64;
        m.put("core.tiles_per_op", tiles);
        // Share of the cores the tile jobs kept busy while jobs could run.
        let eff: Vec<f64> = (0..batch_ns.len())
            .map(|i| jobs[i] / (nproc as f64 * (batch_ns[i] - reduce[i] - adam[i])))
            .collect();
        m.put_sample("trainer.par_efficiency", &eff, 1.0);

        // One full-state checkpoint of the trainer under test, saved and
        // read back.
        let t0 = Instant::now();
        let saved = self.trainer.save_checkpoint(&self.ckpt_path);
        let t1 = Instant::now();
        tracer.record("ckpt.save", 0, self.next_op, t0, t1);
        if saved.is_ok() {
            m.put("ckpt.save_ms", (t1 - t0).as_secs_f64() * 1e3);
            if let Ok(meta) = std::fs::metadata(&self.ckpt_path) {
                m.put("ckpt.bytes", meta.len() as f64);
            }
            let t2 = Instant::now();
            let loaded = load_trainer_state(&self.ckpt_path);
            let t3 = Instant::now();
            tracer.record("ckpt.load", 0, self.next_op, t2, t3);
            if loaded.is_ok_and(|c| c.progress.global_step == self.trainer.global_step() as u64) {
                m.put("ckpt.load_ms", (t3 - t2).as_secs_f64() * 1e3);
            }
        }
    }

    fn facts(&self) -> BTreeMap<String, Value> {
        let mut f = BTreeMap::new();
        if let Some(last) = self.losses.last() {
            f.insert("final_loss".into(), Value::Number(f64::from(*last)));
            f.insert(
                "final_loss_bits".into(),
                Value::String(format!("{:08x}", last.to_bits())),
            );
        }
        f.insert("steps".into(), Value::Number(self.losses.len() as f64));
        f
    }

    /// The trainer's first steps, recomputed from the public building
    /// blocks on a fresh copy of the model, give the same losses bit for
    /// bit. The second loss depends on the first Adam update, so this
    /// covers forward, loss, backward, reduce and optimizer.
    fn final_check(&self) -> bool {
        let cfg = trainer_config(&self.spec, 0);
        let mut reference = TapedTrainer::new(self.spec.model(self.seed), &self.ds, cfg);
        let scratch = Tracer::new();
        self.losses
            .iter()
            .take(REFERENCE_STEPS)
            .all(|want| reference.step(&self.ds, &scratch, 0).to_bits() == want.to_bits())
    }

    fn teardown(self) {
        // The checkpoint is scratch: 160 MB that no later step reads.
        let _ = std::fs::remove_file(&self.ckpt_path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_model::ModelConfig;

    /// The traced step is the trainer's step: same losses, bit for bit,
    /// over several steps (so the parameters after Adam agree too).
    #[test]
    fn taped_trainer_reproduces_trainer_losses() {
        let spec = Spec {
            model_cfg: ModelConfig::tiny,
            fine: (32, 64),
            ..*Spec::named("train-step").unwrap()
        };
        let ds = spec.dataset(9);
        let cfg = trainer_config(&spec, 0);
        let mut trainer = Trainer::new(spec.model(9), &ds, cfg);
        let mut taped = TapedTrainer::new(spec.model(9), &ds, cfg);
        let tracer = Tracer::new();
        for step in 0..4 {
            let want = trainer.train_for(&ds, 1).final_loss.expect("a loss");
            let got = taped.step(&ds, &tracer, step + 1);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "step {step}: {got} vs {want}"
            );
        }
        let spans = tracer.snapshot();
        assert_eq!(trace::durations(&spans, JOB).len(), 16);
        assert_eq!(trace::durations(&spans, FORWARD).len(), 16);
        assert!(trace::unattributed_share(&spans, OP) < 0.5);
    }
}
