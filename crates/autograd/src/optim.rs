//! First-order optimizers over a [`ParamStore`].
//!
//! [`Adam`] keeps its state flat — see [`crate::params`] for the layout —
//! and its one update loop (`AdamRule::apply`) runs as a parallel sweep.

use crate::params::{sweep, GradAccumulator, GradMap, LayoutEntry, ParamLayout, ParamStore, Span};
use orbit2_tensor::Tensor;

/// Common optimizer interface: apply one update step from a gradient map.
pub trait Optimizer {
    /// Update `params` in place using `grads` (missing keys are skipped).
    fn step(&mut self, params: &mut ParamStore, grads: &GradMap);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Override the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba) with bias correction. Moments are kept in full f32
/// precision even when the model trains in emulated BF16, mirroring
/// mixed-precision master weights.
///
/// The moments are two flat arenas over the [`ParamLayout`] of the store
/// the optimizer first steps, not a tensor per parameter: one update is one
/// `sweep` however many parameters there are. A parameter that never gets
/// a gradient keeps zero moments and is never written.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Decoupled weight decay (AdamW) coefficient; 0 for plain Adam.
    weight_decay: f32,
    t: u64,
    /// Empty until the first step binds the optimizer to a store.
    layout: ParamLayout,
    m: Tensor,
    v: Tensor,
}

impl Adam {
    /// Standard Adam with the usual defaults.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            layout: ParamLayout::default(),
            m: Tensor::zeros(vec![0]),
            v: Tensor::zeros(vec![0]),
        }
    }

    /// Enable decoupled weight decay (turning this into AdamW).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Bit-exact snapshot of the optimizer state for checkpointing: handles
    /// onto the arenas, not copies. Hyper-parameters (lr, betas, weight
    /// decay) are configuration, not state: the loader reconstructs them
    /// and imports only `t`/`m`/`v`.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            steps: self.t,
            layout: self.layout.clone(),
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restore state captured by [`Adam::export_state`].
    pub fn import_state(&mut self, state: &AdamState) -> Result<(), String> {
        let total = state.layout.total();
        if state.m.len() != total || state.v.len() != total {
            return Err(format!(
                "adam moments hold {} and {} elements, their layout {total}",
                state.m.len(),
                state.v.len()
            ));
        }
        self.t = state.steps;
        self.layout = state.layout.clone();
        self.m = state.m.clone();
        self.v = state.v.clone();
        Ok(())
    }

    /// One step from the total a [`GradAccumulator`] has just finished — the
    /// trainer's path: no gradient map is built between reduce and update.
    pub fn step_accumulated(&mut self, params: &mut ParamStore, grads: &GradAccumulator) {
        assert!(grads.layout().matches(params), "gradient arena was laid out for another parameter set");
        let mut held = grads.held().peekable();
        self.update(params, |entry| held.next_if(|(e, _)| e.name() == entry.name()).map(|(_, g)| g));
    }

    /// The update sweep. `grad_of` is asked once per parameter, in layout
    /// order; `None` skips the parameter.
    fn update<'g>(
        &mut self,
        params: &mut ParamStore,
        mut grad_of: impl FnMut(&LayoutEntry) -> Option<&'g [f32]>,
    ) {
        if self.layout.is_empty() {
            self.layout = ParamLayout::of(params);
            self.m = Tensor::zeros(vec![self.layout.total()]);
            self.v = Tensor::zeros(vec![self.layout.total()]);
        }
        assert!(self.layout.matches(params), "optimizer state was laid out for another parameter set");
        self.t += 1;
        let t = self.t as f32;
        let rule = AdamRule {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            bc1: 1.0 - self.beta1.powf(t),
            bc2: 1.0 - self.beta2.powf(t),
        };
        let (mut m_rest, mut v_rest) = (self.m.data_mut(), self.v.data_mut());
        let mut spans = Vec::with_capacity(self.layout.entries().len());
        for (entry, (_, value)) in self.layout.entries().iter().zip(params.iter_mut()) {
            let (m, m_tail) = std::mem::take(&mut m_rest).split_at_mut(entry.len());
            let (v, v_tail) = std::mem::take(&mut v_rest).split_at_mut(entry.len());
            (m_rest, v_rest) = (m_tail, v_tail);
            if let Some(g) = grad_of(entry) {
                spans.push(UpdateSpan { p: value.data_mut(), m, v, g });
            }
        }
        sweep(spans, |span| rule.apply(span));
    }
}

/// Bit-exact Adam state: step count plus the two moment arenas and the
/// layout that indexes them (empty before the first step).
#[derive(Debug, Clone)]
pub struct AdamState {
    /// Optimizer steps taken (the `t` in bias correction).
    pub steps: u64,
    /// What `m` and `v` are laid out over.
    pub layout: ParamLayout,
    /// First-moment estimates, `[layout.total()]`.
    pub m: Tensor,
    /// Second-moment estimates, `[layout.total()]`.
    pub v: Tensor,
}

/// One run of a parameter with its moments and its gradient.
struct UpdateSpan<'a> {
    p: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
    g: &'a [f32],
}

impl Span for UpdateSpan<'_> {
    fn len(&self) -> usize {
        self.p.len()
    }

    fn split_at(self, at: usize) -> (Self, Self) {
        let (p0, p1) = self.p.split_at_mut(at);
        let (m0, m1) = self.m.split_at_mut(at);
        let (v0, v1) = self.v.split_at_mut(at);
        let (g0, g1) = self.g.split_at(at);
        (Self { p: p0, m: m0, v: v0, g: g0 }, Self { p: p1, m: m1, v: v1, g: g1 })
    }
}

/// One step's constants.
struct AdamRule {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    bc1: f32,
    bc2: f32,
}

impl AdamRule {
    /// The Adam update, per element. The operation order is a contract:
    /// checkpoints resume bit for bit and the benchmark re-derives losses
    /// from it.
    fn apply(&self, span: UpdateSpan<'_>) {
        let UpdateSpan { p, m, v, g } = span;
        assert!(m.len() == p.len() && v.len() == p.len() && g.len() == p.len());
        for i in 0..p.len() {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g[i] * g[i];
            let mhat = m[i] / self.bc1;
            let vhat = v[i] / self.bc2;
            let mut update = mhat / (vhat.sqrt() + self.eps);
            if self.weight_decay > 0.0 {
                update += self.weight_decay * p[i];
            }
            p[i] -= self.lr * update;
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore, grads: &GradMap) {
        self.update(params, |entry| {
            let g = grads.get(entry.name())?;
            assert_eq!(g.shape(), entry.shape(), "gradient shape mismatch for {}", entry.name());
            Some(g.data())
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Cosine learning-rate schedule with linear warmup, as used for the
/// pretraining runs.
pub fn cosine_schedule(step: u64, warmup: u64, total: u64, base_lr: f32, min_lr: f32) -> f32 {
    if warmup > 0 && step < warmup {
        return base_lr * (step + 1) as f32 / warmup as f32;
    }
    if step >= total {
        return min_lr;
    }
    let progress = (step - warmup) as f32 / (total - warmup).max(1) as f32;
    min_lr + 0.5 * (base_lr - min_lr) * (1.0 + (std::f32::consts::PI * progress).cos())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &ParamStore) -> GradMap {
        // loss = 0.5 * ||x - 3||^2, grad = x - 3
        let mut g = GradMap::new();
        g.insert("x".into(), p.get("x").add_scalar(-3.0));
        g
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = ParamStore::new();
        p.insert("x", Tensor::from_vec(vec![3], vec![-5.0, 0.0, 20.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        for &x in p.get("x").data() {
            assert!((x - 3.0).abs() < 5e-2, "{x}");
        }
        assert_eq!(opt.t, 500);
    }

    #[test]
    fn adamw_decays_unused_weights() {
        // With zero gradient, AdamW still shrinks parameters; Adam does not.
        let mut p = ParamStore::new();
        p.insert("x", Tensor::from_vec(vec![1], vec![1.0]));
        let mut g = GradMap::new();
        g.insert("x".into(), Tensor::zeros(vec![1]));
        let mut opt = Adam::new(0.1).with_weight_decay(0.01);
        for _ in 0..10 {
            opt.step(&mut p, &g);
        }
        assert!(p.get("x").data()[0] < 1.0);
    }

    #[test]
    fn missing_grads_are_skipped() {
        let mut p = ParamStore::new();
        p.insert("frozen", Tensor::from_vec(vec![1], vec![7.0]));
        let mut opt = Adam::new(0.1);
        opt.step(&mut p, &GradMap::new());
        assert_eq!(p.get("frozen").data()[0], 7.0);
    }

    #[test]
    fn adam_state_round_trip_resumes_identically() {
        // Two optimizers: one runs 20 steps straight; the other runs 10,
        // exports/imports its state, and runs 10 more. Parameters must be
        // bit-identical — the checkpoint/resume invariant.
        let init = || {
            let mut p = ParamStore::new();
            p.insert("x", Tensor::from_vec(vec![3], vec![-5.0, 0.0, 20.0]));
            p
        };
        let mut p_straight = init();
        let mut opt_straight = Adam::new(0.1).with_weight_decay(0.01);
        for _ in 0..20 {
            let g = quadratic_grad(&p_straight);
            opt_straight.step(&mut p_straight, &g);
        }

        let mut p = init();
        let mut opt = Adam::new(0.1).with_weight_decay(0.01);
        for _ in 0..10 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        let saved = opt.export_state();
        let mut resumed = Adam::new(0.1).with_weight_decay(0.01);
        resumed.import_state(&saved).unwrap();
        assert_eq!(resumed.t, 10);
        for _ in 0..10 {
            let g = quadratic_grad(&p);
            resumed.step(&mut p, &g);
        }
        assert_eq!(p.get("x").data(), p_straight.get("x").data());
    }

    #[test]
    fn cosine_schedule_shape() {
        let base = 1e-3;
        // Warmup ramps linearly.
        assert!(cosine_schedule(0, 10, 100, base, 0.0) < cosine_schedule(9, 10, 100, base, 0.0));
        // Peak at end of warmup.
        assert!((cosine_schedule(10, 10, 100, base, 0.0) - base).abs() < 1e-9);
        // Decays monotonically after warmup.
        assert!(cosine_schedule(50, 10, 100, base, 0.0) > cosine_schedule(90, 10, 100, base, 0.0));
        // Floors at min_lr.
        assert_eq!(cosine_schedule(1000, 10, 100, base, 1e-5), 1e-5);
    }
}
