//! `tiles-field`: the paper's TILES inference path with no server and no
//! wire. One caller thread loops `core::inference::downscale_with` on a
//! prepared session; an op is one field. Every output must be finite and
//! repeat the checksum the same input produced during set-up.

use crate::infer::{self, Downscaler};
use crate::report::Metrics;
use crate::scene::{Mode, Scene, SetupTimings, Window};
use crate::timed_exec::ShapeTally;
use crate::trace::Tracer;
use crate::workload::Spec;
use orbit2_climate::Normalizer;
use orbit2_model::{InferenceSession, ReslimModel};
use orbit2_tensor::Tensor;
use std::time::{Duration, Instant};

/// A prepared session and the generated fields.
pub struct TilesScene {
    spec: Spec,
    model: ReslimModel,
    session: InferenceSession,
    normalizer: Normalizer,
    inputs: Vec<Tensor>,
    checksums: Vec<u64>,
    timings: SetupTimings,
    next_op: u32,
    tallies: Vec<ShapeTally>,
    /// Durations (ns) of the untraced `downscale_with` calls so far.
    direct_ns: Vec<f64>,
}

impl TilesScene {
    fn downscaler(&self) -> Downscaler<'_> {
        Downscaler {
            model: &self.model,
            session: &self.session,
            normalizer: &self.normalizer,
            tile: self.spec.tile,
        }
    }
}

impl Scene for TilesScene {
    const ROOT: &'static str = infer::DOWNSCALE;

    fn setup(spec: &Spec, mode: &Mode) -> Self {
        let seed = mode.seed;
        let mut timings = SetupTimings::default();
        let ds = spec.dataset(seed);
        let normalizer = timings.time_fit(|| Normalizer::fit(&ds, spec.fit_samples));
        let inputs: Vec<Tensor> = (0..spec.inputs)
            .map(|i| timings.time_sample(|| ds.sample(i)).input)
            .collect();
        let model = spec.model(seed);
        let session = timings.time_session(|| model.session());
        let mut scene = Self {
            spec: *spec,
            model,
            session,
            normalizer,
            inputs,
            checksums: Vec::new(),
            timings,
            next_op: 1,
            tallies: Vec::new(),
            direct_ns: Vec::new(),
        };
        // The warm-up passes are also the first pass over each input: their
        // checksums are what every later pass must repeat.
        for i in 0..spec.warmups.max(scene.inputs.len()) {
            let out = scene
                .downscaler()
                .direct(&scene.inputs[i % scene.inputs.len()]);
            assert!(out.all_finite(), "warm-up field is not finite");
            if i < scene.inputs.len() {
                scene.checksums.push(infer::checksum(&out));
            }
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
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut i = 0usize;
        while Instant::now() < deadline {
            let which = i % self.inputs.len();
            let input = &self.inputs[which];
            i += 1;
            w.attempted += 1;
            let t0 = Instant::now();
            let out = match tracer {
                None => self.downscaler().direct(input),
                Some(t) => {
                    let (out, tallies) = self.downscaler().traced(input, t, 0, self.next_op);
                    self.next_op += 1;
                    self.tallies.extend(tallies);
                    out
                }
            };
            let took = t0.elapsed();
            if tracer.is_none() {
                self.direct_ns.push(took.as_nanos() as f64);
            }
            w.lat_ms.push(took.as_secs_f64() * 1e3);
            w.correct &= out.all_finite() && infer::checksum(&out) == self.checksums[which];
        }
        w.wall_s = start.elapsed().as_secs_f64();
        w
    }

    fn probes(&mut self, tracer: &Tracer, m: &mut Metrics, nproc: usize) {
        let spans = tracer.snapshot();
        infer::model_metrics(m, &spans, &self.tallies);
        infer::core_metrics(m, &spans, &self.direct_ns, nproc);
    }

    fn teardown(self) {}
}
