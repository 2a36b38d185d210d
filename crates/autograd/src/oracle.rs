//! The reference the fused training-state sweeps are held to: the
//! sequential composition they replaced — `average_grad_maps` over the jobs,
//! a scalar unscale + finite scan, and Adam over one tensor per parameter —
//! kept verbatim as a scalar oracle.
//! The property tests below drive both through the trainer's control flow
//! and compare parameters and moments bit for bit.

use crate::optim::{Adam, Optimizer};
use crate::params::{GradAccumulator, GradMap, ParamLayout, ParamStore};
use crate::scaler::GradScaler;
use orbit2_tensor::Tensor;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeMap;

fn average_grad_maps(maps: &[GradMap]) -> GradMap {
    let inv = 1.0 / maps.len() as f32;
    let mut out = GradMap::new();
    for key in maps[0].keys() {
        let mut acc = maps[0][key].clone();
        for m in &maps[1..] {
            acc.add_(&m[key]);
        }
        acc.scale_(inv);
        out.insert(key.clone(), acc);
    }
    out
}

fn unscale_and_check(scaler: &mut GradScaler, grads: &mut GradMap) -> bool {
    let inv = 1.0 / scaler.scale();
    let mut finite = true;
    for g in grads.values_mut() {
        for x in g.data_mut() {
            *x *= inv;
            if !x.is_finite() {
                finite = false;
            }
        }
    }
    scaler.record(finite);
    finite
}

struct OracleAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: BTreeMap<String, Tensor>,
    v: BTreeMap<String, Tensor>,
}

impl OracleAdam {
    fn step(&mut self, params: &mut ParamStore, grads: &GradMap) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for (name, value) in params.iter_mut() {
            let Some(g) = grads.get(name) else { continue };
            let zeros = || Tensor::zeros(value.shape().to_vec());
            let m = self.m.entry(name.clone()).or_insert_with(zeros);
            let v = self.v.entry(name.clone()).or_insert_with(zeros);
            let (gd, md, vd, pd) = (g.data(), m.data_mut(), v.data_mut(), value.data_mut());
            for i in 0..gd.len() {
                md[i] = self.beta1 * md[i] + (1.0 - self.beta1) * gd[i];
                vd[i] = self.beta2 * vd[i] + (1.0 - self.beta2) * gd[i] * gd[i];
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                let mut update = mhat / (vhat.sqrt() + self.eps);
                if self.weight_decay > 0.0 {
                    update += self.weight_decay * pd[i];
                }
                pd[i] -= self.lr * update;
            }
        }
    }
}

/// What one step did, as the trainer reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Stepped,
    ScalerOverflow,
    NonFiniteAverage,
}

/// The trainer's gradient handling before the fused sweeps.
struct Composed {
    params: ParamStore,
    scaler: GradScaler,
    opt: OracleAdam,
}

impl Composed {
    fn step(&mut self, jobs: &[GradMap], bf16: bool) -> Outcome {
        let mut total = average_grad_maps(jobs);
        if bf16 {
            if !unscale_and_check(&mut self.scaler, &mut total) {
                return Outcome::ScalerOverflow;
            }
        } else if total.values().any(|g| !g.all_finite()) {
            return Outcome::NonFiniteAverage;
        }
        self.opt.step(&mut self.params, &total);
        Outcome::Stepped
    }
}

/// The trainer's gradient handling now.
struct Fused {
    params: ParamStore,
    grads: GradAccumulator,
    scaler: GradScaler,
    opt: Adam,
}

impl Fused {
    fn step(&mut self, jobs: &[GradMap], bf16: bool) -> Outcome {
        let finite = self.grads.finish(jobs, bf16.then(|| 1.0 / self.scaler.scale()));
        if bf16 {
            self.scaler.record(finite);
        }
        if !finite {
            return if bf16 { Outcome::ScalerOverflow } else { Outcome::NonFiniteAverage };
        }
        self.opt.step_accumulated(&mut self.params, &self.grads);
        Outcome::Stepped
    }
}

const LR: f32 = 1e-2;

/// Tensor lengths on both sides of the reduce block, and (with `big`) one
/// long enough that the sweep forks and a share boundary cuts through it.
fn store(rng: &mut TestRng, big: bool) -> ParamStore {
    const B: usize = crate::params::REDUCE_BLOCK;
    let mut lens = vec![1, 3, B - 1, B, B + 1, 2 * B + 7, 5 * B - 2];
    if big {
        lens.push((1 << 16) + 1 + rng.below(4000) as usize);
    }
    let mut p = ParamStore::new();
    for (i, len) in lens.into_iter().enumerate() {
        p.insert(format!("w{i}"), Tensor::from_vec(vec![len], values(rng, len, 1.0)));
    }
    // Never receives a gradient: must be skipped, not decayed.
    p.insert("frozen", Tensor::from_vec(vec![5], values(rng, 5, 1.0)));
    p
}

fn values(rng: &mut TestRng, len: usize, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.below(64) {
            0 => -0.0,
            1 => 1.0e-41,
            _ => ((rng.unit_f64() - 0.5) * 4.0) as f32 * scale,
        })
        .collect()
}

fn job_grads(rng: &mut TestRng, params: &ParamStore, scale: f32) -> GradMap {
    params
        .iter()
        .filter(|(name, _)| *name != "frozen")
        .map(|(name, t)| (name.clone(), Tensor::from_vec(t.shape().to_vec(), values(rng, t.len(), scale))))
        .collect()
}

fn pair(params: ParamStore, weight_decay: f32) -> (Composed, Fused) {
    let scaler = || GradScaler::new(1024.0).with_growth_interval(2);
    let composed = Composed {
        params: params.clone(),
        scaler: scaler(),
        opt: OracleAdam {
            lr: LR,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: BTreeMap::new(),
            v: BTreeMap::new(),
        },
    };
    let fused = Fused {
        grads: GradAccumulator::new(ParamLayout::of(&params)),
        params,
        scaler: scaler(),
        opt: Adam::new(LR).with_weight_decay(weight_decay),
    };
    (composed, fused)
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| x.to_bits()).collect()
}

/// `p`, `m`, `v`, `t` and the scaler agree bit for bit.
fn assert_same_state(composed: &Composed, fused: &Fused) -> Result<(), TestCaseError> {
    let state = fused.opt.export_state();
    prop_assert_eq!(state.steps, composed.opt.t);
    for (name, want) in composed.params.iter() {
        prop_assert!(bits(fused.params.get(name).data()) == bits(want.data()), "parameter {} differs", name);
        if state.layout.is_empty() {
            prop_assert!(composed.opt.m.is_empty());
            continue;
        }
        let range = state.layout.entries().iter().find(|e| e.name() == name).expect("laid out").range();
        let zeros = Tensor::zeros(want.shape().to_vec());
        let m = composed.opt.m.get(name).unwrap_or(&zeros);
        let v = composed.opt.v.get(name).unwrap_or(&zeros);
        prop_assert!(bits(&state.m.data()[range.clone()]) == bits(m.data()), "m of {} differs", name);
        prop_assert!(bits(&state.v.data()[range]) == bits(v.data()), "v of {} differs", name);
    }
    let (a, b) = (composed.scaler.export_state(), fused.scaler.export_state());
    prop_assert_eq!((a.scale_bits, a.good_steps, a.skipped_steps), (b.scale_bits, b.good_steps, b.skipped_steps));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_sweeps_match_the_composition_bit_for_bit(
        seed in 0u64..u64::MAX,
        jobs in 1usize..6,
        bf16 in 0usize..2,
        decay in 0usize..2,
        big in 0usize..2,
    ) {
        let mut rng = TestRng::new(seed);
        let bf16 = bf16 == 1;
        let (mut composed, mut fused) = pair(store(&mut rng, big == 1), if decay == 1 { 1e-2 } else { 0.0 });
        for _step in 0..3 {
            let scale = if bf16 { composed.scaler.scale() } else { 1.0 };
            let maps: Vec<GradMap> = (0..jobs).map(|_| job_grads(&mut rng, &composed.params, scale)).collect();
            let want = composed.step(&maps, bf16);
            prop_assert_eq!(fused.step(&maps, bf16), want);
            assert_same_state(&composed, &fused)?;
        }
        prop_assert_eq!(composed.opt.t, 3);
        prop_assert_eq!(bits(fused.params.get("frozen").data()), bits(composed.params.get("frozen").data()));
    }

    #[test]
    fn a_non_finite_element_anywhere_skips_the_step_and_touches_nothing(
        seed in 0u64..u64::MAX,
        jobs in 1usize..5,
        bf16 in 0usize..2,
        big in 0usize..2,
    ) {
        let mut rng = TestRng::new(seed);
        let bf16 = bf16 == 1;
        let (mut composed, mut fused) = pair(store(&mut rng, big == 1), 1e-2);
        // One clean step so that the moments and `t` are not all zero.
        let maps: Vec<GradMap> = (0..jobs).map(|_| job_grads(&mut rng, &composed.params, 1.0)).collect();
        composed.step(&maps, bf16);
        fused.step(&maps, bf16);
        let before = (fused.params.clone(), fused.opt.export_state());

        let mut maps: Vec<GradMap> = (0..jobs).map(|_| job_grads(&mut rng, &composed.params, 1.0)).collect();
        let job = rng.below(jobs as u64) as usize;
        let tensor = rng.below(maps[job].len() as u64) as usize;
        let g = maps[job].values_mut().nth(tensor).expect("in range");
        let at = rng.below(g.len() as u64) as usize;
        g.data_mut()[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.below(3) as usize];
        let want = composed.step(&maps, bf16);
        let got = fused.step(&maps, bf16);
        prop_assert_eq!(got, want);
        prop_assert_eq!(got, if bf16 { Outcome::ScalerOverflow } else { Outcome::NonFiniteAverage });
        assert_same_state(&composed, &fused)?;
        let after = fused.opt.export_state();
        prop_assert_eq!(after.steps, before.1.steps);
        prop_assert_eq!(bits(after.m.data()), bits(before.1.m.data()));
        prop_assert_eq!(bits(after.v.data()), bits(before.1.v.data()));
        for (name, p) in before.0.iter() {
            prop_assert!(bits(fused.params.get(name).data()) == bits(p.data()), "parameter {} moved", name);
        }
    }
}

/// The public functions are the same kernels: `average_grad_maps` nested as
/// the benchmark's `TapedTrainer` nests it, then `Optimizer::step`.
#[test]
fn public_composition_matches_the_oracle() {
    let mut rng = TestRng::new(11);
    let (mut composed, mut fused) = pair(store(&mut rng, true), 1e-5);
    for _ in 0..3 {
        let maps: Vec<GradMap> = (0..4).map(|_| job_grads(&mut rng, &composed.params, 1.0)).collect();
        composed.step(&maps, false);
        let total = crate::params::average_grad_maps(&[crate::params::average_grad_maps(&maps)]);
        fused.opt.step(&mut fused.params, &total);
        assert_same_state(&composed, &fused).unwrap();
    }
}
