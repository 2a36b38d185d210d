//! Deterministic fault injection for chaos-testing the TILES × DDP trainer
//! and the `orbit2-serve` serving path.
//!
//! ORBIT-2 trains across thousands of Frontier GPUs, where node failure is
//! routine (the paper and its predecessor ORBIT lean on checkpoint/restart
//! to survive multi-day runs). This module provides the reproducible half
//! of that story: a [`FaultPlan`] is a seeded, deterministic schedule of
//! `(step, job) → fault` events the trainer consults before running each
//! (replica, tile) job, so a chaos test that kills rank 3 on step 7 kills
//! rank 3 on step 7 *every* run.
//!
//! Faults come in three kinds, mirroring the failure modes the paper's
//! infrastructure has to absorb:
//!
//! * [`FaultKind::Panic`] — the job's thread dies mid-step (a crashed rank);
//! * [`FaultKind::NaNGradient`] — the job completes but its gradients are
//!   poisoned (silent data corruption / numerical blow-up on one rank);
//! * [`FaultKind::Straggler`] — the job completes, late (a slow node; the
//!   all-reduce must wait, but nothing is lost).
//!
//! Recovery semantics live in `trainer::step_batch`; every observed fault
//! is logged as a [`FaultEvent`] and surfaced through `TrainReport`.
//!
//! ## The `ORBIT2_FAULT_PLAN` convention
//!
//! Setting the `ORBIT2_FAULT_PLAN` environment variable arms background
//! fault injection for any training run without code changes. The value is
//! a comma-separated key=value list:
//!
//! ```text
//! ORBIT2_FAULT_PLAN="seed=42,panic=0.02,nan=0.02,straggle=0.05,straggle_ms=10,persistent=0"
//! ```
//!
//! `seed` makes the schedule deterministic: whether job `j` of step `s`
//! faults is a pure function of `(seed, s, j)`, independent of thread
//! timing and of which other faults fired.
//!
//! ## Serving (`ORBIT2_SERVE_FAULT_PLAN`)
//!
//! The same plan chaos-tests `orbit2-serve`: the coordinates become
//! `(dispatch ordinal, 0)` — the ordinal counts requests as workers
//! dispatch them, one forward each — and the schedule is armed through the
//! separate `ORBIT2_SERVE_FAULT_PLAN` variable (same value format) so a
//! process can chaos the trainer and the server independently.
//! `FaultKind::NaNGradient` has no serving meaning (no gradients flow)
//! and is ignored there; `panic` exercises the retry of a panicking
//! forward and `straggle` the deadline checkpoints. As in training,
//! `persistent=1` means a faulty request fails its retry too (it gets a
//! typed `internal` error) while the transient default lets the retry
//! recover every injected panic.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// The kind of fault injected into (or observed on) a tile job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The job's thread panics mid-step (a crashed rank).
    Panic,
    /// The job completes but its gradients are NaN-poisoned.
    NaNGradient,
    /// The job stalls for this many milliseconds before completing intact.
    Straggler(u64),
}

/// What the recovery layer did about a job the fault plan (or real
/// numerics) interfered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The job failed once and its retry succeeded; its gradient made the
    /// all-reduce after all.
    Retried,
    /// The job failed and so did its retry; it was dropped from the
    /// all-reduce and the average renormalized over the survivors.
    Dropped,
    /// The job completed on its own (stragglers: late but intact).
    Completed,
}

/// One entry of the per-run fault log surfaced in `TrainReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Micro-batch step on which the fault occurred.
    pub step: usize,
    /// Flat job index within the step (replica-major, then tile order).
    pub job: usize,
    /// What kind of fault it was.
    pub kind: FaultKind,
    /// How recovery resolved it.
    pub action: FaultAction,
    /// `true` when the fault came from the [`FaultPlan`]; `false` when the
    /// job failed on its own (genuine panic or non-finite gradients).
    pub injected: bool,
}

/// Seeded per-(step, job) fault probabilities for the random mode.
#[derive(Debug, Clone, Copy)]
struct RandomFaults {
    seed: u64,
    p_panic: f64,
    p_nan: f64,
    p_straggle: f64,
    straggle_ms: u64,
}

/// A deterministic schedule of injected faults.
///
/// Two layers compose: explicit `(step, job) → kind` events (exact chaos
/// scripts for tests) and an optional seeded random layer that draws a
/// fault for every `(step, job)` pair as a pure function of the seed. The
/// lookup is stateless, so concurrent jobs can consult the plan in any
/// order without perturbing each other's draws.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    explicit: BTreeMap<(usize, usize), FaultKind>,
    random: Option<RandomFaults>,
    persistent: bool,
}

impl FaultPlan {
    /// The empty plan: no faults, zero overhead.
    pub fn none() -> Self {
        Self::default()
    }

    /// Add one explicit fault event at `(step, job)`.
    pub fn with_event(mut self, step: usize, job: usize, kind: FaultKind) -> Self {
        self.explicit.insert((step, job), kind);
        self
    }

    /// Arm the seeded random layer: each `(step, job)` pair independently
    /// draws panic / NaN / straggler faults with the given probabilities
    /// (straggler delays default to 5 ms; see [`FaultPlan::with_straggle_ms`]).
    pub fn seeded(seed: u64, p_panic: f64, p_nan: f64, p_straggle: f64) -> Self {
        Self {
            explicit: BTreeMap::new(),
            random: Some(RandomFaults { seed, p_panic, p_nan, p_straggle, straggle_ms: 5 }),
            persistent: false,
        }
    }

    /// Override the straggler stall duration for the random layer.
    pub fn with_straggle_ms(mut self, ms: u64) -> Self {
        if let Some(r) = &mut self.random {
            r.straggle_ms = ms;
        }
        self
    }

    /// Mark faults as persistent: a faulty job fails its retry too (a dead
    /// rank rather than a transient glitch), so it is dropped from the
    /// all-reduce instead of recovered. Default is transient (retry clean).
    pub fn with_persistent(mut self) -> Self {
        self.persistent = true;
        self
    }

    /// Whether retries re-apply the plan (see [`FaultPlan::with_persistent`]).
    pub fn is_persistent(&self) -> bool {
        self.persistent
    }

    /// The fault scheduled for `(step, job)`, if any. Pure and
    /// deterministic: the same plan always returns the same answer.
    pub fn lookup(&self, step: usize, job: usize) -> Option<FaultKind> {
        if let Some(kind) = self.explicit.get(&(step, job)) {
            return Some(*kind);
        }
        let r = self.random?;
        // One independent, order-free draw per (step, job): fold the
        // coordinates into the seed with distinct odd multipliers.
        let key = r
            .seed
            .wrapping_add((step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((job as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        let x: f64 = rng.gen_range(0.0..1.0);
        if x < r.p_panic {
            Some(FaultKind::Panic)
        } else if x < r.p_panic + r.p_nan {
            Some(FaultKind::NaNGradient)
        } else if x < r.p_panic + r.p_nan + r.p_straggle {
            Some(FaultKind::Straggler(1 + rng.gen_range(0..r.straggle_ms.max(1))))
        } else {
            None
        }
    }

    /// Parse the `ORBIT2_FAULT_PLAN` value format (see the module docs).
    fn parse(spec: &str) -> Result<Self, String> {
        let mut seed = 0u64;
        let (mut p_panic, mut p_nan, mut p_straggle) = (0.0f64, 0.0f64, 0.0f64);
        let mut straggle_ms = 5u64;
        let mut persistent = false;
        for field in spec.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            let (key, value) =
                field.split_once('=').ok_or_else(|| format!("fault plan field `{field}` is not key=value"))?;
            let bad = |e| format!("fault plan `{key}` has invalid value `{value}`: {e}");
            match key.trim() {
                "seed" => seed = value.trim().parse().map_err(|e| bad(format!("{e}")))?,
                "panic" => p_panic = value.trim().parse().map_err(|e| bad(format!("{e}")))?,
                "nan" => p_nan = value.trim().parse().map_err(|e| bad(format!("{e}")))?,
                "straggle" => p_straggle = value.trim().parse().map_err(|e| bad(format!("{e}")))?,
                "straggle_ms" => straggle_ms = value.trim().parse().map_err(|e| bad(format!("{e}")))?,
                "persistent" => {
                    persistent = matches!(value.trim(), "1" | "true" | "yes");
                }
                other => return Err(format!("unknown fault plan key `{other}`")),
            }
        }
        for (name, p) in [("panic", p_panic), ("nan", p_nan), ("straggle", p_straggle)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault plan `{name}` probability {p} outside [0, 1]"));
            }
        }
        let mut plan = Self::seeded(seed, p_panic, p_nan, p_straggle).with_straggle_ms(straggle_ms);
        if persistent {
            plan = plan.with_persistent();
        }
        Ok(plan)
    }

    /// Build a plan from the `ORBIT2_FAULT_PLAN` environment variable.
    /// Returns `None` when unset or empty; an invalid value is reported on
    /// stderr and ignored (training must not die to a typo in a chaos knob).
    pub(crate) fn from_env() -> Option<Self> {
        Self::from_env_named("ORBIT2_FAULT_PLAN")
    }

    /// Build a plan from the `ORBIT2_SERVE_FAULT_PLAN` environment
    /// variable — the serving-side arming knob, kept separate from the
    /// trainer's so one process can chaos either layer alone.
    pub fn from_serve_env() -> Option<Self> {
        Self::from_env_named("ORBIT2_SERVE_FAULT_PLAN")
    }

    /// Build a plan from an arbitrarily-named environment variable holding
    /// the `ORBIT2_FAULT_PLAN` value format. Returns `None` when unset or
    /// empty; an invalid value is reported on stderr and ignored (neither
    /// training nor serving must die to a typo in a chaos knob).
    fn from_env_named(var: &str) -> Option<Self> {
        let spec = std::env::var(var).ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match Self::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("ignoring invalid {var}: {e}");
                None
            }
        }
    }
}

/// Why an optimizer step was skipped (no parameter update happened).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Every job of the micro-batch failed (even after retries), so there
    /// was nothing to all-reduce.
    AllJobsFailed,
    /// The dynamic gradient scaler found non-finite gradients after
    /// unscaling and backed off (BF16 mode).
    ScalerOverflow,
    /// The averaged gradient went non-finite outside the scaler path.
    NonFiniteAverage,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_events_fire_exactly_where_scheduled() {
        let plan = FaultPlan::none().with_event(3, 1, FaultKind::Panic).with_event(5, 0, FaultKind::NaNGradient);
        assert_eq!(plan.lookup(3, 1), Some(FaultKind::Panic));
        assert_eq!(plan.lookup(5, 0), Some(FaultKind::NaNGradient));
        assert_eq!(plan.lookup(3, 0), None);
        assert_eq!(plan.lookup(4, 1), None);
    }

    #[test]
    fn seeded_lookup_is_deterministic_and_order_free() {
        let plan = FaultPlan::seeded(42, 0.1, 0.1, 0.1);
        // Same (step, job) → same answer, regardless of query order.
        let forward: Vec<_> = (0..50).flat_map(|s| (0..4).map(move |j| (s, j))).collect();
        let a: Vec<_> = forward.iter().map(|&(s, j)| plan.lookup(s, j)).collect();
        let b: Vec<_> = forward.iter().rev().map(|&(s, j)| plan.lookup(s, j)).collect();
        let b_reversed: Vec<_> = b.into_iter().rev().collect();
        assert_eq!(a, b_reversed);
        // With 30% total fault probability, 200 draws should hit some of
        // every kind (deterministic given the seed — this is a regression
        // lock, not a statistical test).
        assert!(a.iter().any(|f| matches!(f, Some(FaultKind::Panic))));
        assert!(a.iter().any(|f| matches!(f, Some(FaultKind::NaNGradient))));
        assert!(a.iter().any(|f| matches!(f, Some(FaultKind::Straggler(_)))));
        assert!(a.iter().any(Option::is_none));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::seeded(1, 0.2, 0.2, 0.2);
        let b = FaultPlan::seeded(2, 0.2, 0.2, 0.2);
        let same = (0..100).filter(|&s| a.lookup(s, 0) == b.lookup(s, 0)).count();
        assert!(same < 100, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn parse_round_trips_the_documented_convention() {
        let plan = FaultPlan::parse("seed=7, panic=0.5, nan=0.25, straggle=0.25, straggle_ms=3, persistent=1").unwrap();
        assert!(plan.is_persistent());
        // With total probability 1.0 every (step, job) faults.
        for s in 0..20 {
            assert!(plan.lookup(s, 0).is_some(), "step {s} drew no fault at p=1");
        }
        if let Some(FaultKind::Straggler(ms)) =
            (0..200).find_map(|s| plan.lookup(s, 1).filter(|k| matches!(k, FaultKind::Straggler(_))))
        {
            assert!((1..=3).contains(&ms));
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic=lots").is_err());
        assert!(FaultPlan::parse("panic=1.5").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
    }

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::none();
        for s in 0..100 {
            assert_eq!(plan.lookup(s, s % 7), None);
        }
    }
}
